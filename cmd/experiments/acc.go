package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hybridstitch/internal/accuracy"
)

// runAcc handles the accuracy-harness modes, mirroring runBench:
// snapshot capture (-acc-out) runs every named adversarial scenario
// through the full confidence-weighted pipeline, gates the result
// against the documented per-scenario thresholds, and writes the
// ACC_<tag>.json artifact; snapshot diffing (-acc-old/-acc-new) fails on
// accuracy regressions the way benchdiff fails on >15% slowdowns.
func runAcc(out string, seed int64, quick bool, oldPath, newPath string) error {
	if out != "" {
		cfg := accuracy.SnapshotConfig{Seed: seed}
		if quick {
			cfg.Rows, cfg.Cols = 4, 4
		}
		snap, err := accuracy.BuildSnapshot(cfg)
		if err != nil {
			return err
		}
		snap.Date = time.Now().Format("2006-01-02")
		for _, name := range []string{"nominal", "near-blank", "illum-gradient", "periodic", "drift-low-overlap"} {
			m := snap.Scenarios[name]
			fmt.Printf("%-20s pairs within 1 px %2d/%2d  rescued %2d  rms %.3f px  tiles within 1 px %.3f\n",
				name, m.PairsWithin1, m.Pairs, m.PairsRescued, m.PlacementRMS, m.TilesWithin1Frac)
		}
		if err := accuracy.WriteSnapshotFile(out, snap); err != nil {
			return err
		}
		fmt.Printf("wrote accuracy snapshot to %s\n", out)
		if quick {
			// The quick grid is for smoke runs; thresholds are
			// documented for the standard workload only.
			return nil
		}
		if violations := accuracy.CheckThresholds(snap, accuracy.DefaultThresholds()); len(violations) > 0 {
			for _, v := range violations {
				fmt.Printf("THRESHOLD  %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Println("all scenarios within documented thresholds")
		return nil
	}
	if newPath == "" {
		return fmt.Errorf("-acc-old requires -acc-new")
	}
	if filepath.Clean(oldPath) == filepath.Clean(newPath) {
		return fmt.Errorf("-acc-old and -acc-new both name %s: a snapshot cannot regress against itself", oldPath)
	}
	oldSnap, err := accuracy.LoadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newSnap, err := accuracy.LoadSnapshot(newPath)
	if err != nil {
		return err
	}
	diff := accuracy.Diff(oldSnap, newSnap)
	fmt.Print(diff.Format())
	if diff.Failed() {
		// Nonzero exit so CI fails on an accuracy regression.
		os.Exit(1)
	}
	return nil
}
