package docscheck

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestRepositoryDocs runs the cross-check against this repository:
// documentation drift fails the ordinary test suite, not just CI.
func TestRepositoryDocs(t *testing.T) {
	problems, err := Check(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

// write populates a file under dir, creating parents.
func write(t *testing.T, dir, rel, content string) {
	t.Helper()
	path := filepath.Join(dir, rel)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// scaffold builds a minimal fake repository for negative tests.
func scaffold(t *testing.T) string {
	dir := t.TempDir()
	write(t, dir, "README.md", "See [docs/GOOD.md](docs/GOOD.md).\n\n```sh\npxgood -h\ncurl localhost:8080/docs/mydoc/query\n```\n")
	write(t, dir, "docs/GOOD.md", "All fine.\n")
	write(t, dir, "cmd/pxgood/main.go", "package main\n")
	write(t, dir, "internal/server/server.go",
		"package server\nfunc f() {\n\ts.route(\"GET /docs\", nil)\n\ts.route(\"POST /docs/{name}/query\", nil)\n}\n")
	return dir
}

func TestCleanScaffold(t *testing.T) {
	problems, err := Check(scaffold(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 0 {
		t.Fatalf("clean scaffold reported: %v", problems)
	}
}

func TestDetectsMissingLinkedDoc(t *testing.T) {
	dir := scaffold(t)
	write(t, dir, "README.md", "See [docs/GONE.md](docs/GONE.md) and [docs/GOOD.md](docs/GOOD.md).\n")
	problems, _ := Check(dir)
	if len(problems) != 1 || problems[0] != "README.md references missing docs/GONE.md" {
		t.Fatalf("problems = %v", problems)
	}
}

func TestDetectsOrphanedDoc(t *testing.T) {
	dir := scaffold(t)
	write(t, dir, "docs/ORPHAN.md", "nobody links me\n")
	problems, _ := Check(dir)
	if len(problems) != 1 || problems[0] != "docs/ORPHAN.md is not linked from README.md" {
		t.Fatalf("problems = %v", problems)
	}
}

func TestDetectsStaleBinaryAndRoute(t *testing.T) {
	dir := scaffold(t)
	write(t, dir, "docs/GOOD.md",
		"```sh\npxgone -h\ndoc.pxml stays fine\ncurl -X POST localhost:8080/docs/mydoc/nosuch\n```\n\n```\npxignored in a plain block\n```\n")
	problems, _ := Check(dir)
	if len(problems) != 2 {
		t.Fatalf("problems = %v", problems)
	}
	if problems[0] != `docs/GOOD.md:2: references binary "pxgone" with no cmd/pxgone` {
		t.Errorf("binary problem = %q", problems[0])
	}
	if problems[1] != `docs/GOOD.md:4: references route "/docs/mydoc/nosuch" matching no registered server route` {
		t.Errorf("route problem = %q", problems[1])
	}
}

// TestPprofMuxRoutes covers the auxiliary-mux scan: paths registered
// with mux.HandleFunc in cmd/pxserve (the pprof endpoints) are valid
// route references, a trailing-slash registration covers its whole
// subtree, and unregistered /debug paths still fail.
func TestPprofMuxRoutes(t *testing.T) {
	dir := scaffold(t)
	write(t, dir, "cmd/pxserve/main.go",
		"package main\nfunc f() {\n\tmux.HandleFunc(\"/debug/pprof/\", nil)\n\tmux.HandleFunc(\"/debug/pprof/profile\", nil)\n}\n")
	write(t, dir, "docs/GOOD.md",
		"```sh\ncurl localhost:6060/debug/pprof/heap\ncurl localhost:6060/debug/pprof/profile\ncurl localhost:6060/debug/nosuch\n```\n")
	problems, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) != 1 || problems[0] != `docs/GOOD.md:4: references route "/debug/nosuch" matching no registered server route` {
		t.Fatalf("problems = %v", problems)
	}
}

func TestScansIndentedFences(t *testing.T) {
	dir := scaffold(t)
	write(t, dir, "docs/GOOD.md",
		"- a list item with an indented fence:\n\n  ```sh\n  pxgone -h\n  ```\n")
	problems, _ := Check(dir)
	if len(problems) != 1 || problems[0] != `docs/GOOD.md:4: references binary "pxgone" with no cmd/pxgone` {
		t.Fatalf("problems = %v", problems)
	}
}

// TestDetectsStaleFlag covers the flag check: a flag the binary's
// main.go does not declare fails in every spelling (-name, --name,
// -name=v) and on a backslash-continued line, while declared and
// built-in flags, quoted text, other commands' flags and go blocks
// pass.
func TestDetectsStaleFlag(t *testing.T) {
	dir := scaffold(t)
	write(t, dir, "cmd/pxgood/main.go",
		"package main\nvar dir = flag.String(\"dir\", \"\", \"\")\nvar v = flag.Bool(\"v\", false, \"\")\n")
	write(t, dir, "docs/GOOD.md", "```sh\n"+
		"pxgood -dir ./wh -v -h 'A(B -x)' | grep -c x\n"+ // line 2: clean
		"pxgood -cache 1024\n"+ // line 3
		"pxgood --cache=1024 -dir=./wh\n"+ // line 4
		"pxgood -dir ./wh \\\n"+ // line 5: continues
		"  -gone\n"+ // line 6
		"curl -X POST localhost:8080/docs/mydoc/query -d '{}'\n"+
		"```\n\n```go\n// pxgood -gone in Go code is not a command line\n```\n")
	problems, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`docs/GOOD.md:3: passes pxgood flag -cache, not declared in cmd/pxgood/main.go`,
		`docs/GOOD.md:4: passes pxgood flag -cache, not declared in cmd/pxgood/main.go`,
		`docs/GOOD.md:6: passes pxgood flag -gone, not declared in cmd/pxgood/main.go`,
	}
	if !slices.Equal(problems, want) {
		t.Fatalf("problems = %q\nwant %q", problems, want)
	}
}

// TestDetectsStaleMetric covers the metric catalog check in both
// directions: a family registered in non-test Go code without a row in
// docs/OBSERVABILITY.md fails, as does a px_* name (or px_..._* prefix)
// in an inline code span that no Go code registers; histogram series
// suffixes, test-only registrations and fenced blocks pass.
func TestDetectsStaleMetric(t *testing.T) {
	dir := scaffold(t)
	write(t, dir, "README.md", "See [docs/GOOD.md](docs/GOOD.md) and [docs/OBSERVABILITY.md](docs/OBSERVABILITY.md).\n")
	write(t, dir, "internal/foo/foo.go", "package foo\n"+
		"var a = obs.Default().Counter(\"px_good_total\", \"good\")\n"+
		"func f() {\n\treg.Histogram(\"px_lat_seconds\", \"latency\", obs.L(\"stage\", s))\n"+
		"\treg.GaugeFunc(\"px_missing\",\n\t\t\"no row\", nil)\n}\n")
	write(t, dir, "internal/foo/foo_test.go", "package foo\nvar b = reg.Counter(\"px_testonly_total\", \"\")\n")
	write(t, dir, "docs/OBSERVABILITY.md", "| metric | type |\n|---|---|\n"+
		"| `px_good_total` | counter |\n| `px_lat_seconds` | histogram |\n\n"+
		"Read `px_lat_seconds_count{stage=\"s\"}`, `rate(px_good_total[5m])` and `px_lat_*`,\n"+
		"not `px_gone_total` or `px_nothing_*`.\n\n```sh\necho `px_fenced_total`\n```\n")
	problems, err := Check(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`docs/OBSERVABILITY.md: metric px_missing (registered in internal/foo/foo.go) has no catalog row`,
		`docs/OBSERVABILITY.md:7: names metric px_gone_total, which no Go code registers`,
		`docs/OBSERVABILITY.md:7: names metric px_nothing_*, which no Go code registers`,
	}
	if !slices.Equal(problems, want) {
		t.Fatalf("problems = %q\nwant %q", problems, want)
	}
}
