// Command bench measures the system the way its users run it: a
// directory of TIFF tiles through phase 1, the least-squares solve and the
// out-of-core compose into a pyramid that the tile server serves, on four
// named workloads. See README.md for the workloads, the metrics and how to
// run, trace and compare.
//
//	go run . [-runs N] [-traced] [-o snapshot.json]     every workload, each in its own process
//	go run . -workload W -seed N -seconds S -trace 0|1  one workload; last line is the result
//	go run . -compare a.json b.json                     gate snapshot b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	var (
		workload = flag.String("workload", "", "run this one workload in this process and print the result line; empty runs every workload, each in a child process")
		seed     = flag.Int64("seed", 1, "seed of everything random: plate, synthetic graph, viewer sessions, sampled tiles and pairs")
		seconds  = flag.Float64("seconds", 8, "measuring time of the stage the workload scales; the other stages run fixed doses")
		trace    = flag.Int("trace", 0, "with -workload: 1 makes the traced run and reports the per-layer metrics")
		traced   = flag.Bool("traced", false, "without -workload: one more run per workload, traced, for the per-layer numbers")
		runs     = flag.Int("runs", 1, "without -workload: untraced runs per workload; run i uses seed+i")
		scale    = flag.String("scale", "full", "input sizes: full, or smoke for a seconds-long check of the harness")
		out      = flag.String("out", "out", "directory for the snapshot, traces and scratch data")
		snapshot = flag.String("o", "", "snapshot file (default <out>/snapshot.json)")
		compare  = flag.Bool("compare", false, "compare two snapshots, old then new, and exit 1 if new is outside a bound")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			log.Fatal("-compare takes two snapshot files: old new")
		}
		ok, err := compareSnapshots(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	specs, err := workloads(*scale)
	if err != nil {
		log.Fatal(err)
	}
	if *workload == "" {
		if *snapshot == "" {
			*snapshot = *out + "/snapshot.json"
		}
		ok, err := runAll(specs, allOptions{
			seed: *seed, seconds: *seconds, runs: *runs, traced: *traced,
			scale: *scale, out: *out, snapshot: *snapshot,
		})
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	for _, s := range specs {
		if s.Name != *workload {
			continue
		}
		rep, err := runWorkload(s, *seed, *seconds, *trace == 1, *out)
		if err != nil {
			log.Fatalf("%s: %v", s.Name, err)
		}
		printReport(rep)
		if !rep.Correct {
			os.Exit(1)
		}
		return
	}
	log.Fatalf("unknown -workload %q", *workload)
}

// printReport prints every metric by name, then, as the last line, the
// result object the driver reads.
func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s seed %d: %d operations, %d failed\n", rep.Workload, rep.Seed, rep.Attempted, rep.Failed)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("  %-32s %14.6g %-8s", name, m.Value, m.Unit)
		if st, ok := rep.Samples[name]; ok {
			fmt.Printf(" n=%d min %.6g max %.6g", st.N, st.Min, st.Max)
		}
		fmt.Println()
	}
	if rep.Traced {
		fmt.Print(formatLayers(rep))
	}
	detail, err := json.Marshal(rep)
	if err != nil {
		log.Fatalf("encoding the report: %v", err)
	}
	fmt.Printf("detail %s\n", detail)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		log.Fatalf("encoding the result: %v", err)
	}
	fmt.Printf("%s\n", line)
}
