// Package docscheck keeps the documentation honest: it cross-checks
// README.md and docs/*.md against the code they describe. Run as part
// of `go test ./...` (and as the CI "docs references" step), it fails
// when
//
//   - README links a docs/*.md file that does not exist,
//   - a docs/*.md file is not linked from README (orphaned docs rot),
//   - a fenced sh/go code block in README or docs invokes a px*
//     binary with no directory under cmd/,
//   - a fenced sh block passes such a binary a -flag its
//     cmd/<bin>/main.go does not declare with flag.<Type>("flag", ...),
//     or
//   - such a block exercises a server URL whose path matches no route
//     registered in internal/server,
//   - a metric family registered in non-test Go code has no row in the
//     docs/OBSERVABILITY.md catalog, or
//   - an inline code span in README or docs names a px_* metric (or a
//     px_..._* prefix) that no Go code registers; the _bucket, _sum and
//     _count series of a histogram count as registered.
//
// The checks are deliberately textual — no doc generation, no special
// markers in the prose — so writing documentation stays cheap and
// drifting documentation stays expensive.
package docscheck

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	docLinkRE = regexp.MustCompile(`docs/[A-Za-z0-9._-]+\.md`)
	// fenceRE matches a code-fence line (indentation allowed, so
	// fences inside markdown lists are still scanned) and captures its
	// info string.
	fenceRE = regexp.MustCompile("^[ \t]*```([A-Za-z0-9]*)")
	// binaryRE matches px* tool invocations; the leading context group
	// rejects file suffixes (.pxml) and XML tags (<pxml>).
	binaryRE = regexp.MustCompile(`(^|[^.<A-Za-z0-9_])(px[a-z]+)\b`)
	// urlRE matches example-server URLs and captures the path.
	urlRE = regexp.MustCompile(`localhost(?::[0-9]+)?(/[A-Za-z0-9_{}./-]*)`)
	// routeRE extracts the route patterns the server declares. The
	// patterns live in server.go's exported Route* constant block
	// ("GET /docs", "POST /docs/{name}/query", ...); the registrations
	// themselves use the constants, so this scans for any
	// method-plus-path string literal.
	routeRE = regexp.MustCompile(`"(GET|PUT|POST|DELETE) (/[^"]*)"`)
	// muxRouteRE extracts the plain-path registrations of pxserve's
	// auxiliary pprof mux, so docs may reference /debug/pprof URLs.
	muxRouteRE = regexp.MustCompile(`mux\.HandleFunc\("(/[^"]+)"`)
	// flagDeclRE extracts the flags a command declares on the default
	// flag set: flag.String("dir", ...), flag.Bool("v", ...).
	flagDeclRE = regexp.MustCompile(`flag\.[A-Z][A-Za-z0-9]*\("([^"]+)"`)
	// flagArgRE matches a command-line flag token (-name, --name,
	// -name=value) and captures the name.
	flagArgRE = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9_.-]*)(=|$)`)
	// metricRegRE extracts the metric families Go code registers on an
	// obs registry: reg.Counter("px_...", ...) and likewise Gauge,
	// GaugeFunc, Histogram and HistogramFunc.
	metricRegRE = regexp.MustCompile(`\.(?:Counter|Gauge|GaugeFunc|Histogram|HistogramFunc)\("(px_[a-z0-9_]+)"`)
	// codeSpanRE matches an inline code span.
	codeSpanRE = regexp.MustCompile("`[^`]+`")
	// metricNameRE matches a metric name, or a prefix ending in *.
	metricNameRE = regexp.MustCompile(`\bpx_[a-z0-9_]*\*?`)
)

// metricCatalog is the document whose table rows catalog every metric.
const metricCatalog = "docs/OBSERVABILITY.md"

// builtinFlags are accepted by every command the flag package parses.
var builtinFlags = []string{"h", "help"}

// Check cross-checks the documentation of the repository rooted at
// root and returns one message per problem found (empty means clean).
func Check(root string) ([]string, error) {
	var problems []string

	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		return nil, err
	}

	// README → docs: every linked file exists.
	linked := make(map[string]bool)
	for _, ref := range docLinkRE.FindAllString(string(readme), -1) {
		if linked[ref] {
			continue
		}
		linked[ref] = true
		if _, err := os.Stat(filepath.Join(root, ref)); err != nil {
			problems = append(problems, fmt.Sprintf("README.md references missing %s", ref))
		}
	}

	// docs → README: every docs file is linked.
	docFiles, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	sort.Strings(docFiles)
	for _, f := range docFiles {
		rel := "docs/" + filepath.Base(f)
		if !linked[rel] {
			problems = append(problems, fmt.Sprintf("%s is not linked from README.md", rel))
		}
	}

	binaries, err := cmdBinaries(root)
	if err != nil {
		return nil, err
	}
	routes, err := serverRoutes(root)
	if err != nil {
		return nil, err
	}

	// Fenced sh/go blocks: binaries and routes must exist.
	files := append([]string{filepath.Join(root, "README.md")}, docFiles...)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, f)
		problems = append(problems, checkBlocks(rel, string(data), binaries, routes)...)
	}

	metrics, err := checkMetrics(root, files)
	if err != nil {
		return nil, err
	}
	return append(problems, metrics...), nil
}

// checkMetrics checks the metric catalog in both directions: every
// family registered in non-test Go code has a row in metricCatalog, and
// every px_* name in an inline code span of files is registered.
func checkMetrics(root string, files []string) ([]string, error) {
	registered := make(map[string]string) // family -> first registering file
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		for _, m := range metricRegRE.FindAllStringSubmatch(string(data), -1) {
			if _, ok := registered[m[1]]; !ok {
				registered[m[1]] = filepath.ToSlash(rel)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	catalog, err := os.ReadFile(filepath.Join(root, metricCatalog))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	rows := make(map[string]bool)
	for _, line := range strings.Split(string(catalog), "\n") {
		if strings.HasPrefix(line, "|") {
			for _, span := range codeSpanRE.FindAllString(line, -1) {
				rows[strings.Trim(span, "`")] = true
			}
		}
	}
	var problems []string
	families := make([]string, 0, len(registered))
	for f := range registered {
		families = append(families, f)
	}
	sort.Strings(families)
	for _, f := range families {
		if !rows[f] {
			problems = append(problems, fmt.Sprintf("%s: metric %s (registered in %s) has no catalog row", metricCatalog, f, registered[f]))
		}
	}

	resolves := func(name string) bool {
		if prefix, ok := strings.CutSuffix(name, "*"); ok {
			for _, f := range families {
				if strings.HasPrefix(f, prefix) {
					return true
				}
			}
			return false
		}
		for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
			if _, ok := registered[strings.TrimSuffix(name, suffix)]; ok {
				return true
			}
		}
		return false
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, f)
		inBlock := false
		for i, line := range strings.Split(string(data), "\n") {
			if fenceRE.MatchString(line) {
				inBlock = !inBlock
			}
			if inBlock {
				continue
			}
			for _, span := range codeSpanRE.FindAllString(line, -1) {
				for _, name := range metricNameRE.FindAllString(span, -1) {
					if !resolves(name) {
						problems = append(problems, fmt.Sprintf("%s:%d: names metric %s, which no Go code registers", filepath.ToSlash(rel), i+1, name))
					}
				}
			}
		}
	}
	return problems, nil
}

// cmdBinaries returns the tool names under cmd/, each with the set of
// flags its main.go declares.
func cmdBinaries(root string) (map[string]map[string]bool, error) {
	entries, err := os.ReadDir(filepath.Join(root, "cmd"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]bool, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		flags := make(map[string]bool)
		for _, f := range builtinFlags {
			flags[f] = true
		}
		data, err := os.ReadFile(filepath.Join(root, "cmd", e.Name(), "main.go"))
		if err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		for _, m := range flagDeclRE.FindAllStringSubmatch(string(data), -1) {
			flags[m[1]] = true
		}
		out[e.Name()] = flags
	}
	return out, nil
}

// serverRoutes returns the path patterns registered in
// internal/server/server.go ("/docs/{name}/query", ...) plus the
// pprof paths pxserve registers on its auxiliary mux. A pattern ending
// in "/" is a subtree root and matches any path under it.
func serverRoutes(root string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "internal", "server", "server.go"))
	if err != nil {
		return nil, err
	}
	var out []string
	for _, m := range routeRE.FindAllStringSubmatch(string(data), -1) {
		out = append(out, m[2])
	}
	data, err = os.ReadFile(filepath.Join(root, "cmd", "pxserve", "main.go"))
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	for _, m := range muxRouteRE.FindAllStringSubmatch(string(data), -1) {
		out = append(out, m[1])
	}
	return out, nil
}

// checkBlocks scans the fenced sh/go blocks of one markdown document.
func checkBlocks(file, content string, binaries map[string]map[string]bool, routes []string) []string {
	var problems []string
	inBlock := false
	lang := ""
	cont := "" // the binary whose command a trailing backslash continues
	for i, line := range strings.Split(content, "\n") {
		if m := fenceRE.FindStringSubmatch(line); m != nil {
			if inBlock {
				inBlock = false
			} else {
				inBlock, lang = true, m[1]
			}
			cont = ""
			continue
		}
		if !inBlock || (lang != "sh" && lang != "bash" && lang != "go") {
			continue
		}
		commands := lang != "go" // whether px* names on the line start commands
		if cont != "" {
			// The line continues cont's command: all of it is arguments.
			found, more := flagProblems(file, i+1, cont, line, binaries[cont])
			problems = append(problems, found...)
			if !more {
				cont = ""
			}
			commands = false
		}
		for _, m := range binaryRE.FindAllStringSubmatchIndex(line, -1) {
			name := line[m[4]:m[5]]
			if name == "pxml" {
				continue
			}
			flags, ok := binaries[name]
			switch {
			case !ok:
				problems = append(problems,
					fmt.Sprintf("%s:%d: references binary %q with no cmd/%s", file, i+1, name, name))
			case commands:
				found, more := flagProblems(file, i+1, name, line[m[1]:], flags)
				problems = append(problems, found...)
				if more {
					cont = name
				}
			}
		}
		for _, m := range urlRE.FindAllStringSubmatch(line, -1) {
			path := strings.TrimRight(strings.SplitN(m[1], "?", 2)[0], "/")
			if path == "" {
				continue
			}
			if !matchesRoute(path, routes) {
				problems = append(problems,
					fmt.Sprintf("%s:%d: references route %q matching no registered server route", file, i+1, path))
			}
		}
	}
	return problems
}

// flagProblems reports the flags among a command's arguments that bin
// does not declare, and whether the command continues on the next line.
func flagProblems(file string, line int, bin, args string, declared map[string]bool) ([]string, bool) {
	names, more := commandFlags(args)
	var problems []string
	for _, f := range names {
		if !declared[f] {
			problems = append(problems,
				fmt.Sprintf("%s:%d: passes %s flag -%s, not declared in cmd/%s/main.go", file, line, bin, f, bin))
		}
	}
	return problems, more
}

// commandFlags returns the names of the flag tokens in args, the text
// after a binary's name on a shell line, up to the end of its command:
// an unquoted |, ;, &, <, >, ) or a token starting with #. Quoted text
// never splits a token or starts a flag. more reports a trailing
// backslash, which continues the command on the next line.
func commandFlags(args string) (names []string, more bool) {
	start, quote := -1, rune(0)
	token := func(end int) {
		if start >= 0 {
			if m := flagArgRE.FindStringSubmatch(args[start:end]); m != nil {
				names = append(names, m[1])
			}
			start = -1
		}
	}
	for i, c := range args {
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == ' ' || c == '\t':
			token(i)
		case strings.ContainsRune("|;&<>)", c) || (c == '#' && start < 0):
			token(i)
			return names, false
		default:
			if c == '\'' || c == '"' {
				quote = c
			}
			if start < 0 {
				start = i
			}
		}
	}
	token(len(args))
	return names, quote == 0 && strings.HasSuffix(strings.TrimRight(args, " \t"), "\\")
}

// matchesRoute reports whether the concrete path matches any
// registered pattern, with {wildcard} segments matching any one
// segment and a trailing-slash pattern matching its whole subtree.
func matchesRoute(path string, routes []string) bool {
	segs := strings.Split(path, "/")
	for _, pattern := range routes {
		if strings.HasSuffix(pattern, "/") &&
			(path+"/" == pattern || strings.HasPrefix(path, pattern)) {
			return true
		}
		psegs := strings.Split(pattern, "/")
		if len(psegs) != len(segs) {
			continue
		}
		ok := true
		for i := range psegs {
			if strings.HasPrefix(psegs[i], "{") && strings.HasSuffix(psegs[i], "}") {
				if segs[i] == "" {
					ok = false
					break
				}
				continue
			}
			if psegs[i] != segs[i] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}
