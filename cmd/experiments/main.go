// Command experiments regenerates the paper's tables and figures — every
// entry of DESIGN.md's per-experiment index — printing model-scale
// predictions (calibrated discrete-event machine model at the paper's
// 42×59 workload) and real reduced-scale measurements side by side, and
// writing PNG artifacts for the composed-image figures.
//
// Usage:
//
//	experiments -list
//	experiments -exp all -out results/
//	experiments -exp table2
//
// It doubles as the accuracy-regression harness: -acc-out runs every named
// adversarial scenario through the full pipeline into an ACC_*.json
// snapshot (failing if any scenario misses its documented threshold),
// and -acc-old/-acc-new diff two snapshots, flagging accuracy
// regressions with a nonzero exit:
//
//	experiments -acc-out ACC_$(date +%F).json
//	experiments -acc-old ACC_old.json -acc-new ACC_new.json
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"hybridstitch/internal/report"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	var (
		exp    = flag.String("exp", "all", "experiment id, or \"all\"")
		out    = flag.String("out", "", "directory for PNG artifacts (figs 13, 14)")
		quick  = flag.Bool("quick", false, "shrink the real-measurement workloads")
		list   = flag.Bool("list", false, "list experiment ids and exit")
		seed   = flag.Int64("seed", 1, "dataset seed")
		accOut = flag.String("acc-out", "", "run the accuracy scenarios and write the snapshot to this JSON file")
		accOld = flag.String("acc-old", "", "baseline accuracy snapshot JSON to diff against")
		accNew = flag.String("acc-new", "", "candidate accuracy snapshot JSON to diff (with -acc-old)")
	)
	flag.Parse()

	if *accOut != "" || *accOld != "" {
		if err := runAcc(*accOut, *seed, *quick, *accOld, *accNew); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *list {
		for _, e := range report.All() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := report.Options{OutDir: *out, Quick: *quick, Seed: *seed}
	var todo []report.Experiment
	if *exp == "all" {
		todo = report.All()
	} else {
		e, err := report.ByID(*exp)
		if err != nil {
			log.Fatal(err)
		}
		todo = []report.Experiment{e}
	}
	for _, e := range todo {
		fmt.Printf("=== %s: %s ===\n", e.ID, e.Title)
		t0 := time.Now()
		outStr, err := e.Run(opts)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Print(outStr)
		fmt.Printf("(%s done in %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
}
