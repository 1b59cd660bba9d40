package fuzzyxml_test

// End-to-end integration tests of the CLI tools: each binary is built
// once into a temp dir and driven the way a user would drive it.

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	fuzzyxml "repro"
)

// buildTools compiles the cmd/ binaries once per test run.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	paths := make(map[string]string, len(names))
	for _, n := range names {
		bin := filepath.Join(dir, n)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+n)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", n, err, out)
		}
		paths[n] = bin
	}
	return paths
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

const slide12XML = `<pxml>
  <events>
    <event name="w1" prob="0.8"/>
    <event name="w2" prob="0.7"/>
  </events>
  <root>
    <A>
      <B cond="w1 !w2">foo</B>
      <C><D cond="w2"/></C>
    </A>
  </root>
</pxml>`

const slide15TXXML = `<transaction confidence="0.9" event="w3">
  <where>A $a(B $b, C $c)</where>
  <insert into="$a"><D/></insert>
  <delete select="$c"/>
</transaction>`

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t, "pxquery", "pxworlds", "pxupdate", "pxsimplify", "pxgen", "pxwarehouse")
	work := t.TempDir()

	doc := filepath.Join(work, "slide12.pxml")
	if err := os.WriteFile(doc, []byte(slide12XML), 0o644); err != nil {
		t.Fatal(err)
	}

	// pxquery: the slide-13 probability.
	out := run(t, bins["pxquery"], "-doc", doc, "-query", "A(B)")
	if !strings.Contains(out, "P=0.24") {
		t.Errorf("pxquery output:\n%s", out)
	}

	// pxquery Monte-Carlo mode.
	out = run(t, bins["pxquery"], "-doc", doc, "-query", "A(B)", "-mode", "mc", "-samples", "20000")
	if !strings.Contains(out, "P=0.2") {
		t.Errorf("pxquery mc output:\n%s", out)
	}

	// pxworlds: the slide-12 distribution.
	out = run(t, bins["pxworlds"], "-doc", doc)
	for _, want := range []string{"3 distinct worlds", "P=0.7", "P=0.24", "P=0.06"} {
		if !strings.Contains(out, want) {
			t.Errorf("pxworlds output missing %q:\n%s", want, out)
		}
	}

	// pxupdate: slide-15 on its own document.
	doc15 := filepath.Join(work, "slide15.pxml")
	run15 := `<pxml><events><event name="w1" prob="0.8"/><event name="w2" prob="0.7"/></events><root><A><B cond="w1"/><C cond="w2"/></A></root></pxml>`
	if err := os.WriteFile(doc15, []byte(run15), 0o644); err != nil {
		t.Fatal(err)
	}
	tx := filepath.Join(work, "tx.xml")
	if err := os.WriteFile(tx, []byte(slide15TXXML), 0o644); err != nil {
		t.Fatal(err)
	}
	updated := filepath.Join(work, "updated.pxml")
	run(t, bins["pxupdate"], "-doc", doc15, "-tx", tx, "-out", updated)
	data, err := os.ReadFile(updated)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`cond="!w1 w2"`, `cond="w1 w2 !w3"`, `<D cond="w1 w2 w3"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("pxupdate output missing %q:\n%s", want, data)
		}
	}

	// pxsimplify on a redundant document.
	noisy := filepath.Join(work, "noisy.pxml")
	noisyXML := `<pxml><events><event name="w" prob="0.5"/></events><root><A><B cond="w !w"/><C cond="w"/></A></root></pxml>`
	if err := os.WriteFile(noisy, []byte(noisyXML), 0o644); err != nil {
		t.Fatal(err)
	}
	clean := filepath.Join(work, "clean.pxml")
	run(t, bins["pxsimplify"], "-doc", noisy, "-out", clean)
	cleanData, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(cleanData), "<B") {
		t.Errorf("unsatisfiable node survived pxsimplify:\n%s", cleanData)
	}

	// pxgen produces parseable documents, reproducibly.
	g1 := run(t, bins["pxgen"], "-kind", "fuzzy", "-seed", "7", "-events", "3")
	g2 := run(t, bins["pxgen"], "-kind", "fuzzy", "-seed", "7", "-events", "3")
	if g1 != g2 {
		t.Error("pxgen not deterministic for equal seeds")
	}
	genDoc := filepath.Join(work, "gen.pxml")
	if err := os.WriteFile(genDoc, []byte(g1), 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, bins["pxworlds"], "-doc", genDoc) // must parse and expand

	// pxwarehouse: init, load, stat, query, update, simplify, dump, drop.
	wh := filepath.Join(work, "wh")
	run(t, bins["pxwarehouse"], "-dir", wh, "init")
	run(t, bins["pxwarehouse"], "-dir", wh, "load", "demo", doc15)
	out = run(t, bins["pxwarehouse"], "-dir", wh, "list")
	if !strings.Contains(out, "demo") {
		t.Errorf("pxwarehouse list:\n%s", out)
	}
	out = run(t, bins["pxwarehouse"], "-dir", wh, "stat", "demo")
	if !strings.Contains(out, "3 nodes") {
		t.Errorf("pxwarehouse stat:\n%s", out)
	}
	out = run(t, bins["pxwarehouse"], "-dir", wh, "update", "demo", tx)
	if !strings.Contains(out, "1 valuations") {
		t.Errorf("pxwarehouse update:\n%s", out)
	}
	out = run(t, bins["pxwarehouse"], "-dir", wh, "query", "demo", "A(D $d)")
	if !strings.Contains(out, "P=0.504") {
		t.Errorf("pxwarehouse query:\n%s", out)
	}
	run(t, bins["pxwarehouse"], "-dir", wh, "simplify", "demo")
	out = run(t, bins["pxwarehouse"], "-dir", wh, "dump", "demo")
	if !strings.Contains(out, "<pxml>") {
		t.Errorf("pxwarehouse dump:\n%s", out)
	}
	run(t, bins["pxwarehouse"], "-dir", wh, "drop", "demo")
	out = run(t, bins["pxwarehouse"], "-dir", wh, "list")
	if strings.Contains(out, "demo") {
		t.Errorf("document survived drop:\n%s", out)
	}

	// verify-journal inspects without recovering: load, update, simplify
	// and drop are four mutations, one record each. recover reports what
	// an open had to replay — nothing, every invocation above having
	// closed (and so checkpointed) the warehouse.
	out = run(t, bins["pxwarehouse"], "-dir", wh, "verify-journal")
	if !strings.Contains(out, "4 records (4 mutations, 0 view operations, 0 aborted)") || strings.Contains(out, "problem:") {
		t.Errorf("pxwarehouse verify-journal:\n%s", out)
	}
	// Each invocation is a fresh open, and the first update after an
	// open carries the document's full state: so do the load, update
	// and simplify.
	if !strings.Contains(out, "mutation records: 3 with full state, 0 transaction-only") {
		t.Errorf("pxwarehouse verify-journal full-state counts:\n%s", out)
	}
	out = run(t, bins["pxwarehouse"], "-dir", wh, "recover")
	if !strings.Contains(out, "recovered: 0 documents replayed from the journal\n") ||
		!strings.Contains(out, "recovered: 0 transaction-only records re-applied\n") {
		t.Errorf("pxwarehouse recover:\n%s", out)
	}

	// -store kv: the same flow on the embedded kv page store, with
	// later invocations auto-detecting the backend from the directory.
	kvwh := filepath.Join(work, "wh-kv")
	out = run(t, bins["pxwarehouse"], "-dir", kvwh, "-store", "kv", "init")
	if !strings.Contains(out, "kv backend") {
		t.Errorf("pxwarehouse -store kv init:\n%s", out)
	}
	run(t, bins["pxwarehouse"], "-dir", kvwh, "-store", "kv", "load", "demo", doc15)
	out = run(t, bins["pxwarehouse"], "-dir", kvwh, "list") // no -store: auto-detected
	if !strings.Contains(out, "demo") {
		t.Errorf("pxwarehouse list on kv store:\n%s", out)
	}
	out = run(t, bins["pxwarehouse"], "-dir", kvwh, "update", "demo", tx)
	if !strings.Contains(out, "1 valuations") {
		t.Errorf("pxwarehouse update on kv store:\n%s", out)
	}
	out = run(t, bins["pxwarehouse"], "-dir", kvwh, "query", "demo", "A(D $d)")
	if !strings.Contains(out, "P=0.504") {
		t.Errorf("pxwarehouse query on kv store:\n%s", out)
	}
	out = run(t, bins["pxwarehouse"], "-dir", kvwh, "verify-journal")
	if !strings.Contains(out, "2 records (2 mutations, 0 view operations, 0 aborted)") || strings.Contains(out, "problem:") {
		t.Errorf("pxwarehouse verify-journal on kv store:\n%s", out)
	}
}

func TestCLIPxbenchSelected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t, "pxbench")
	out := run(t, bins["pxbench"], "-e", "E1,E6")
	for _, want := range []string{"E1", "E6", "PASS"} {
		if !strings.Contains(out, want) {
			t.Errorf("pxbench output missing %q:\n%s", want, out)
		}
	}
	out = run(t, bins["pxbench"], "-list")
	if !strings.Contains(out, "E10") {
		t.Errorf("pxbench -list:\n%s", out)
	}
}

// TestCLIPxview drives the materialized-view CLI end to end: register,
// read, list, maintenance across a warehouse update, stats and drop.
func TestCLIPxview(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t, "pxview", "pxwarehouse")
	work := t.TempDir()
	doc := filepath.Join(work, "slide12.pxml")
	if err := os.WriteFile(doc, []byte(slide12XML), 0o644); err != nil {
		t.Fatal(err)
	}
	wh := filepath.Join(work, "wh")
	run(t, bins["pxwarehouse"], "-dir", wh, "init")
	run(t, bins["pxwarehouse"], "-dir", wh, "load", "demo", doc)

	// Register a TPWJ view and an XPath view.
	out := run(t, bins["pxview"], "-dir", wh, "register", "demo", "bview", "A(B $x)")
	if !strings.Contains(out, `registered "bview" on "demo" (1 answers)`) || !strings.Contains(out, "P=0.24") {
		t.Errorf("pxview register:\n%s", out)
	}
	out = run(t, bins["pxview"], "-dir", wh, "-syntax", "xpath", "register", "demo", "dview", "/A/C/D")
	if !strings.Contains(out, "P=0.7") {
		t.Errorf("pxview register xpath:\n%s", out)
	}
	out = run(t, bins["pxview"], "-dir", wh, "list", "demo")
	if !strings.Contains(out, "bview\ttpwj\tA(B $x)") || !strings.Contains(out, "dview\txpath\t/A/C/D") {
		t.Errorf("pxview list:\n%s", out)
	}

	// A probabilistic deletion of B must flow into the maintained
	// answers: P drops from 0.24 to 0.24 * 0.5 = 0.12.
	tx := filepath.Join(work, "delb.xml")
	txXML := `<transaction confidence="0.5"><where>A(B $b)</where><delete select="$b"/></transaction>`
	if err := os.WriteFile(tx, []byte(txXML), 0o644); err != nil {
		t.Fatal(err)
	}
	run(t, bins["pxwarehouse"], "-dir", wh, "update", "demo", tx)
	out = run(t, bins["pxview"], "-dir", wh, "read", "demo", "bview")
	if !strings.Contains(out, "P=0.12") {
		t.Errorf("pxview read after update:\n%s", out)
	}

	// JSON output parses and carries the condition.
	out = run(t, bins["pxview"], "-dir", wh, "-json", "read", "demo", "bview")
	var res struct {
		Name    string `json:"name"`
		Answers []struct {
			P         float64 `json:"p"`
			Tree      string  `json:"tree"`
			Condition string  `json:"condition"`
		} `json:"answers"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("pxview -json does not parse: %v\n%s", err, out)
	}
	if res.Name != "bview" || len(res.Answers) != 1 || res.Answers[0].Condition == "" {
		t.Errorf("pxview -json read: %+v", res)
	}

	// Stats prints the warehouse's view series: the registry size and
	// the maintenance tiers, keyed as /stats reports them.
	out = run(t, bins["pxview"], "-dir", wh, "stats")
	var viewStats map[string]float64
	if err := json.Unmarshal([]byte(out), &viewStats); err != nil {
		t.Fatalf("pxview stats does not parse: %v\n%s", err, out)
	}
	if viewStats["px_views_registered"] != 2 {
		t.Errorf("pxview stats: px_views_registered = %v, want 2:\n%s", viewStats["px_views_registered"], out)
	}
	if _, ok := viewStats[`px_view_maintenance_total{tier="recompute"}`]; !ok {
		t.Errorf("pxview stats lacks the maintenance tiers:\n%s", out)
	}

	// Drop, and reads start failing.
	run(t, bins["pxview"], "-dir", wh, "drop", "demo", "bview")
	cmd := exec.Command(bins["pxview"], "-dir", wh, "read", "demo", "bview")
	if cmdOut, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("pxview read of dropped view succeeded:\n%s", cmdOut)
	}
}

// TestCLIPxviewKV drives pxview on a kv warehouse made by pxwarehouse:
// pxview detects the backend from the directory, as pxserve and
// pxwarehouse do, so it sees the loaded document and leaves no
// filestore layout behind.
func TestCLIPxviewKV(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t, "pxview", "pxwarehouse")
	work := t.TempDir()
	doc := filepath.Join(work, "slide12.pxml")
	if err := os.WriteFile(doc, []byte(slide12XML), 0o644); err != nil {
		t.Fatal(err)
	}
	wh := filepath.Join(work, "wh-kv")
	run(t, bins["pxwarehouse"], "-dir", wh, "-store", "kv", "init")
	run(t, bins["pxwarehouse"], "-dir", wh, "load", "demo", doc)

	out := run(t, bins["pxview"], "-dir", wh, "register", "demo", "bview", "A(B $x)")
	if !strings.Contains(out, `registered "bview" on "demo" (1 answers)`) || !strings.Contains(out, "P=0.24") {
		t.Errorf("pxview register on kv store:\n%s", out)
	}
	out = run(t, bins["pxview"], "-dir", wh, "list", "demo")
	if !strings.Contains(out, "bview\ttpwj\tA(B $x)") {
		t.Errorf("pxview list on kv store:\n%s", out)
	}
	out = run(t, bins["pxview"], "-dir", wh, "read", "demo", "bview")
	if !strings.Contains(out, "P=0.24") {
		t.Errorf("pxview read on kv store:\n%s", out)
	}
	for _, name := range []string{"docs", "journal.log", "views.json"} {
		if _, err := os.Stat(filepath.Join(wh, name)); !os.IsNotExist(err) {
			t.Errorf("pxview left filestore file %s in a kv warehouse (stat: %v)", name, err)
		}
	}
}

// TestCLIPxsearch drives the keyword-search CLI end to end: text and
// JSON output, ELCA mode, thresholds and Monte-Carlo estimation.
func TestCLIPxsearch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t, "pxsearch")
	work := t.TempDir()
	doc := filepath.Join(work, "lib.pxml")
	libXML := `<pxml>
  <events>
    <event name="w1" prob="0.8"/>
    <event name="w2" prob="0.5"/>
  </events>
  <root>
    <lib>
      <book cond="w1"><title>kafka</title><author>max</author></book>
      <shelf><book cond="w2"><title>kafka</title></book></shelf>
    </lib>
  </root>
</pxml>`
	if err := os.WriteFile(doc, []byte(libXML), 0o644); err != nil {
		t.Fatal(err)
	}

	out := run(t, bins["pxsearch"], "-doc", doc, "kafka")
	for _, want := range []string{"P=0.8  /lib/book/title", "P=0.5  /lib/shelf/book/title", "2 answers"} {
		if !strings.Contains(out, want) {
			t.Errorf("pxsearch output missing %q:\n%s", want, out)
		}
	}

	// The MinProb threshold prunes and filters; TopK cuts.
	out = run(t, bins["pxsearch"], "-doc", doc, "-minprob", "0.6", "kafka")
	if strings.Contains(out, "P=0.5") || !strings.Contains(out, "P=0.8") {
		t.Errorf("pxsearch -minprob output:\n%s", out)
	}

	// ELCA with both keywords: only the first book holds kafka and max.
	out = run(t, bins["pxsearch"], "-doc", doc, "-mode", "elca", "kafka", "max")
	if !strings.Contains(out, "/lib/book ") || strings.Contains(out, "/lib/shelf") {
		t.Errorf("pxsearch elca output:\n%s", out)
	}

	// JSON output parses and Monte-Carlo estimates converge.
	out = run(t, bins["pxsearch"], "-doc", doc, "-json", "-mc", "-samples", "20000", "kafka")
	var res struct {
		Answers []struct {
			P    float64 `json:"P"`
			Path string  `json:"Path"`
		} `json:"Answers"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("pxsearch -json does not parse: %v\n%s", err, out)
	}
	if len(res.Answers) != 2 || res.Answers[0].P < 0.75 || res.Answers[0].P > 0.85 {
		t.Errorf("pxsearch -json -mc answers: %+v", res.Answers)
	}

	// Keywordless invocation fails with usage.
	cmd := exec.Command(bins["pxsearch"], "-doc", doc)
	if cmdOut, err := cmd.CombinedOutput(); err == nil {
		t.Errorf("pxsearch without keywords succeeded:\n%s", cmdOut)
	}
}

// TestCLIPxserveRequestTimeoutDefault: without -request-timeout,
// pxserve bounds every evaluation at 30 seconds — the usage text says
// so and the server it boots logs the bound it was given — and
// -request-timeout 0 turns the bound off.
func TestCLIPxserveRequestTimeoutDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bin := buildTools(t, "pxserve")["pxserve"]
	usage, _ := exec.Command(bin, "-h").CombinedOutput()
	if !regexp.MustCompile(`-request-timeout duration\n[^\n]*\(default 30s\)`).Match(usage) {
		t.Errorf("usage does not give -request-timeout a 30s default:\n%s", usage)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, "request timeout 30s"},
		{[]string{"-request-timeout", "0"}, "request timeout 0s"},
	} {
		args := append([]string{"-dir", filepath.Join(t.TempDir(), "wh"), "-addr", "127.0.0.1:0"}, c.args...)
		srv := exec.Command(bin, args...)
		stderr, err := srv.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		// Stop waiting for the line after a while: a kill ends the scan.
		timer := time.AfterFunc(10*time.Second, func() { srv.Process.Kill() }) //nolint:errcheck
		found := false
		lines := bufio.NewScanner(stderr)
		for !found && lines.Scan() {
			found = strings.Contains(lines.Text(), c.want)
		}
		timer.Stop()
		srv.Process.Kill() //nolint:errcheck
		srv.Wait()         //nolint:errcheck
		if !found {
			t.Errorf("pxserve %v never logged %q", c.args, c.want)
		}
	}
}

// TestCLIPxsim drives the simulator end-to-end the way CI's sim smoke
// step does: boot pxserve on an ephemeral port, run a small seeded
// workload with the audit on, and require a clean exit with a -json-out
// report carrying zero discrepancies. Also pins the exit-code contract:
// 2 for usage errors, 1 for runtime failures.
func TestCLIPxsim(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t, "pxserve", "pxsim")
	work := t.TempDir()

	// Boot pxserve on :0 and read the actual bound address off stdout.
	srv := exec.Command(bins["pxserve"], "-dir", filepath.Join(work, "wh"), "-addr", "127.0.0.1:0")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill() //nolint:errcheck
		srv.Wait()         //nolint:errcheck
	}()
	line := make([]byte, 256)
	n, err := stdout.Read(line)
	if err != nil {
		t.Fatalf("reading pxserve banner: %v", err)
	}
	banner := string(line[:n])
	i := strings.LastIndex(banner, "listening on ")
	if i < 0 {
		t.Fatalf("pxserve banner %q has no listen address", banner)
	}
	addr := strings.TrimSpace(banner[i+len("listening on "):])
	endpoint := "http://" + addr

	// A clean seeded run: exit 0, audit summary, and a JSON run report
	// with a zero discrepancy count.
	reportPath := filepath.Join(work, "sim.json")
	logPath := filepath.Join(work, "workload.log")
	out := run(t, bins["pxsim"],
		"-endpoint", endpoint, "-tenants", "3", "-docs", "1", "-ops", "150",
		"-seed", "42", "-workers", "3", "-check-every", "5",
		"-json-out", reportPath, "-log", logPath)
	if !strings.Contains(out, "audit clean") {
		t.Errorf("pxsim output:\n%s", out)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Ops   int64 `json:"ops"`
		Audit *struct {
			DiscrepancyCount int64 `json:"discrepancy_count"`
			Checks           int64 `json:"checks"`
		} `json:"audit"`
		Routes []struct {
			Route string `json:"route"`
		} `json:"routes"`
		Engine map[string]float64 `json:"engine_counters"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("run report does not parse: %v", err)
	}
	if report.Audit == nil {
		t.Fatal("run report has no audit")
	}
	if report.Audit.DiscrepancyCount != 0 {
		t.Errorf("run report has %d discrepancies", report.Audit.DiscrepancyCount)
	}
	if report.Ops != 150 || len(report.Routes) == 0 {
		t.Errorf("run report: ops=%d routes=%d", report.Ops, len(report.Routes))
	}
	if report.Engine["px_engine_compiles_total"] == 0 {
		t.Errorf("run report engine counters = %v, want the server's compiles", report.Engine)
	}
	if logData, err := os.ReadFile(logPath); err != nil || len(logData) == 0 {
		t.Errorf("workload log missing or empty (err=%v)", err)
	}

	// Usage error: missing -endpoint exits 2.
	cmd := exec.Command(bins["pxsim"])
	if err := cmd.Run(); err == nil {
		t.Error("pxsim without -endpoint succeeded")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("pxsim without -endpoint: %v, want exit 2", err)
	}

	// Bad mix exits 2.
	cmd = exec.Command(bins["pxsim"], "-endpoint", endpoint, "-mix", "bogus=1")
	if err := cmd.Run(); err == nil {
		t.Error("pxsim with bad mix succeeded")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("pxsim with bad mix: %v, want exit 2", err)
	}

	// Runtime failure (unreachable endpoint) exits 1.
	cmd = exec.Command(bins["pxsim"], "-endpoint", "http://127.0.0.1:1", "-ops", "5")
	if err := cmd.Run(); err == nil {
		t.Error("pxsim against dead endpoint succeeded")
	} else if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("pxsim against dead endpoint: %v, want exit 1", err)
	}
}

// TestCLIVerifyJournalTail: verify-journal counts the mutation records
// that carry a full state and those that carry their transaction only,
// and rejects (exit 1) a transaction-only update with no full state of
// its document before it, which no crash can leave behind.
func TestCLIVerifyJournalTail(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	bins := buildTools(t, "pxwarehouse")

	// One open: the create is the document's full state, and the three
	// updates after it journal their transactions only.
	wh := filepath.Join(t.TempDir(), "wh")
	w, err := fuzzyxml.OpenWarehouse(wh)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := fuzzyxml.ReadDocXML(strings.NewReader(slide12XML))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Create("demo", doc); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tx := fuzzyxml.NewTransaction(fuzzyxml.MustParseQuery("A $a"), 0.9, fuzzyxml.InsertOp("a", fuzzyxml.MustParseTree("N")))
		if _, err := w.Update("demo", tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := run(t, bins["pxwarehouse"], "-dir", wh, "verify-journal")
	if !strings.Contains(out, "4 records (4 mutations, 0 view operations, 0 aborted)") ||
		!strings.Contains(out, "mutation records: 1 with full state, 3 transaction-only") || strings.Contains(out, "problem:") {
		t.Errorf("pxwarehouse verify-journal:\n%s", out)
	}

	// A transaction-only update of a document dropped before it.
	bad := t.TempDir()
	if err := os.MkdirAll(filepath.Join(bad, "docs"), 0o755); err != nil {
		t.Fatal(err)
	}
	journal := `{"seq":1,"op":"create","doc":"X","content":"<pxml><events></events><root><A></A></root></pxml>"}
{"seq":2,"op":"drop","doc":"X"}
{"seq":3,"op":"update","doc":"X","tx":"<simplify/>","nodes":1}
`
	if err := os.WriteFile(filepath.Join(bad, "journal.log"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bins["pxwarehouse"], "-dir", bad, "verify-journal")
	outBytes, err := cmd.CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Errorf("verify-journal of an orphaned Tx-only update: %v, want exit 1\n%s", err, outBytes)
	}
	if !strings.Contains(string(outBytes), `problem: seq 3: Tx-only update of "X" with no full state of it before`) {
		t.Errorf("verify-journal output:\n%s", outBytes)
	}
}
