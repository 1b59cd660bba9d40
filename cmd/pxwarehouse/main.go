// Command pxwarehouse drives the probabilistic XML warehouse: a durable
// store of named fuzzy documents with journaled updates (slide 3 of the
// paper).
//
// Usage:
//
//	pxwarehouse -dir ./wh init
//	pxwarehouse -dir ./wh -store kv init
//	pxwarehouse -dir ./wh load mydoc doc.pxml
//	pxwarehouse -dir ./wh list
//	pxwarehouse -dir ./wh stat mydoc
//	pxwarehouse -dir ./wh query mydoc 'A(B $x)'
//	pxwarehouse -dir ./wh update mydoc tx.xml
//	pxwarehouse -dir ./wh simplify mydoc
//	pxwarehouse -dir ./wh dump mydoc
//	pxwarehouse -dir ./wh drop mydoc
//	pxwarehouse -dir ./wh verify-journal
//	pxwarehouse -dir ./wh recover
package main

import (
	"flag"
	"fmt"
	"os"

	fuzzyxml "repro"
	"repro/internal/obs"
)

func main() {
	dir := flag.String("dir", "", "warehouse directory (required)")
	storeName := flag.String("store", "auto", "storage backend: filestore, kv, or auto (detect from the directory)")
	flag.Parse()
	args := flag.Args()
	if *dir == "" || len(args) == 0 {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "commands: init | load | list | stat | query | update | simplify | dump | drop | verify-journal | recover")
		os.Exit(2)
	}

	// verify-journal is read-only diagnosis and must run before the
	// warehouse is opened: opening runs recovery, which truncates the
	// very torn tail the summary is meant to show.
	if args[0] == "verify-journal" {
		verifyJournal(*dir)
		return
	}

	w, err := fuzzyxml.OpenWarehouseBackend(*dir, *storeName)
	if err != nil {
		fatal(err)
	}
	defer w.Close()

	switch cmd := args[0]; cmd {
	case "init":
		fmt.Printf("warehouse ready at %s (%s backend)\n", w.Dir(), w.Backend())

	case "recover":
		// Opening the warehouse above already ran recovery; report how
		// many documents it caught up to the journal, and how many
		// transaction-only records it re-applied to do so.
		m := obs.Snapshot(w.Registry()).Metrics
		fmt.Printf("recovered: %.0f documents replayed from the journal\n", m["px_recovery_replays_total"])
		fmt.Printf("recovered: %.0f transaction-only records re-applied\n", m["px_recovery_tx_replayed_total"])

	case "load":
		need(args, 3, "load <name> <file.pxml>")
		f, err := os.Open(args[2])
		if err != nil {
			fatal(err)
		}
		doc, err := fuzzyxml.ReadDocXML(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if err := w.Create(args[1], doc); err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %q (%d nodes, %d events)\n", args[1], doc.Size(), doc.Table.Len())

	case "list":
		names, err := w.List()
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}

	case "stat":
		need(args, 2, "stat <name>")
		info, err := w.Stat(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s: %d nodes, %d events, %d possible worlds\n",
			info.Name, info.Nodes, info.Events, info.Worlds)

	case "query":
		need(args, 3, "query <name> <query-text>")
		q, err := fuzzyxml.ParseQuery(args[2])
		if err != nil {
			fatal(err)
		}
		answers, err := w.Query(args[1], q)
		if err != nil {
			fatal(err)
		}
		if len(answers) == 0 {
			fmt.Println("no answers")
			return
		}
		for _, a := range answers {
			fmt.Printf("P=%.6g  %s\n", a.P, fuzzyxml.FormatTree(a.Tree))
		}

	case "update":
		need(args, 3, "update <name> <tx.xml>")
		f, err := os.Open(args[2])
		if err != nil {
			fatal(err)
		}
		tx, err := fuzzyxml.ReadTransactionXML(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		stats, err := w.Update(args[1], tx)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("applied: %d valuations, %d inserted, %d copies, event %q\n",
			stats.Valuations, stats.Inserted, stats.Copies, stats.Event)

	case "simplify":
		need(args, 2, "simplify <name>")
		stats, err := w.Simplify(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("simplified: -%d nodes, -%d literals, %d merges, -%d events\n",
			stats.NodesRemoved, stats.LiteralsRemoved, stats.SiblingsMerged, stats.EventsRemoved)

	case "dump":
		need(args, 2, "dump <name>")
		doc, err := w.Get(args[1])
		if err != nil {
			fatal(err)
		}
		if err := fuzzyxml.WriteDocXML(os.Stdout, doc); err != nil {
			fatal(err)
		}
		fmt.Println()

	case "drop":
		need(args, 2, "drop <name>")
		if err := w.Drop(args[1]); err != nil {
			fatal(err)
		}
		fmt.Println("dropped", args[1])

	default:
		usage(fmt.Sprintf("unknown command %q", cmd))
	}
}

// verifyJournal prints a journal health summary and exits nonzero when
// the journal has structural problems (corruption no crash can cause).
// A torn tail is a normal crash leftover that the next open drops; it
// is reported but does not fail the check.
func verifyJournal(dir string) {
	sum, err := fuzzyxml.InspectJournal(dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("journal: %d records (%d mutations, %d view operations, %d aborted), last seq %d\n",
		sum.Records, sum.Mutations, sum.ViewOps, sum.Aborted, sum.LastSeq)
	fmt.Printf("mutation records: %d with full state, %d transaction-only\n", sum.FullState, sum.TxOnly)
	if sum.LegacyCommits > 0 {
		fmt.Printf("legacy: %d commit markers written by an earlier version (ignored)\n", sum.LegacyCommits)
	}
	if sum.TornTail {
		fmt.Println("torn tail: partial trailing record (crash mid-append; dropped on next open)")
	}
	for _, p := range sum.Problems {
		fmt.Println("problem:", p)
	}
	if len(sum.Problems) > 0 {
		os.Exit(1)
	}
}

func need(args []string, n int, form string) {
	if len(args) < n {
		usage("usage: pxwarehouse -dir DIR " + form)
	}
}

// usage reports a usage error; these exit 2, runtime errors exit 1.
func usage(msg string) {
	fmt.Fprintln(os.Stderr, "pxwarehouse:", msg)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pxwarehouse:", err)
	os.Exit(1)
}
