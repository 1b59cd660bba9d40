// Command pxview manages materialized views of a probabilistic XML
// warehouse: named TPWJ/XPath queries whose answers and probabilities
// the warehouse keeps incrementally maintained across updates (see
// docs/ARCHITECTURE.md, "Materialized views").
//
// Usage:
//
//	pxview -dir ./wh register mydoc topbooks 'A(book $x)'
//	pxview -dir ./wh -syntax xpath register mydoc dtitles '/lib/book/title'
//	pxview -dir ./wh read mydoc topbooks
//	pxview -dir ./wh list mydoc
//	pxview -dir ./wh drop mydoc topbooks
//	pxview -dir ./wh stats
//
// The storage backend is detected from the directory, as pxserve and
// pxwarehouse do by default.
//
// Exit status is 0 on success, 1 on any warehouse or view error, and
// 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	fuzzyxml "repro"
	"repro/internal/obs"
)

func main() {
	var (
		dir      = flag.String("dir", "", "warehouse directory (required)")
		syntax   = flag.String("syntax", "", "query syntax for register: tpwj (default) | xpath")
		emitJSON = flag.Bool("json", false, "print results as JSON")
	)
	flag.Parse()
	args := flag.Args()
	if *dir == "" || len(args) == 0 {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "commands: register <doc> <view> <query> | read <doc> <view> | list <doc> | drop <doc> <view> | stats")
		os.Exit(2)
	}

	w, err := fuzzyxml.OpenWarehouseBackend(*dir, fuzzyxml.StoreAuto)
	if err != nil {
		fatal(err)
	}
	defer w.Close()

	switch cmd := args[0]; cmd {
	case "register":
		need(args, 4, "register <doc> <view> <query>")
		res, err := w.RegisterView(args[1], args[2], args[3], *syntax)
		if err != nil {
			fatal(err)
		}
		if !*emitJSON {
			// With -json the result object below is the whole output,
			// so it stays parseable by itself.
			fmt.Printf("registered %q on %q (%d answers)\n", res.Name, res.Doc, len(res.Answers))
		}
		printAnswers(res, *emitJSON)

	case "read":
		need(args, 3, "read <doc> <view>")
		res, err := w.ReadView(args[1], args[2])
		if err != nil {
			fatal(err)
		}
		printAnswers(res, *emitJSON)

	case "list":
		need(args, 2, "list <doc>")
		defs, err := w.ListViews(args[1])
		if err != nil {
			fatal(err)
		}
		if *emitJSON {
			printJSON(defs)
			return
		}
		for _, d := range defs {
			syn := d.Syntax
			if syn == "" {
				syn = "tpwj"
			}
			fmt.Printf("%s\t%s\t%s\n", d.Name, syn, d.Query)
		}

	case "drop":
		need(args, 3, "drop <doc> <view>")
		if err := w.DropView(args[1], args[2]); err != nil {
			fatal(err)
		}
		fmt.Printf("dropped %q from %q\n", args[2], args[1])

	case "stats":
		// The warehouse's px_view_* and px_views_registered series, as
		// pxserve's /stats reports them.
		printJSON(obs.Snapshot(w.Registry()).WithPrefix("px_view"))

	default:
		usage(fmt.Sprintf("unknown command %q", cmd))
	}
}

// printAnswers renders a view read: one "P= tree" line per answer, or
// the whole result as JSON.
func printAnswers(res *fuzzyxml.ViewResult, asJSON bool) {
	if asJSON {
		printJSON(struct {
			Doc     string  `json:"doc"`
			Name    string  `json:"name"`
			Query   string  `json:"query"`
			Syntax  string  `json:"syntax,omitempty"`
			Answers []jsonA `json:"answers"`
		}{res.Doc, res.Name, res.Query, res.Syntax, jsonAnswers(res)})
		return
	}
	for _, a := range res.Answers {
		fmt.Printf("P=%.6g  %s\n", a.P, fuzzyxml.FormatTree(a.Tree))
	}
}

// jsonA is one answer in -json output.
type jsonA struct {
	P         float64 `json:"p"`
	Tree      string  `json:"tree"`
	Condition string  `json:"condition,omitempty"`
}

func jsonAnswers(res *fuzzyxml.ViewResult) []jsonA {
	out := make([]jsonA, len(res.Answers))
	for i, a := range res.Answers {
		out[i] = jsonA{P: a.P, Tree: fuzzyxml.FormatTree(a.Tree)}
		switch {
		case a.Cond != nil:
			out[i].Condition = a.Cond.String()
		case a.Formula != nil:
			out[i].Condition = a.Formula.String()
		}
	}
	return out
}

func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

func need(args []string, n int, form string) {
	if len(args) < n {
		usage("usage: pxview -dir DIR " + form)
	}
}

// usage reports a usage error; these exit 2, runtime errors exit 1.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "pxview:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pxview:", err)
	os.Exit(1)
}
