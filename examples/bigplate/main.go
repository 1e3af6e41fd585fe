// Bigplate: stitching a plate whose transform working set exceeds
// "physical memory" — the regime the paper's Fig 5 warns about (the
// paper's own grid needs 53+ GB of transforms against 48 GB of RAM).
// The memory governor simulates a machine with room for only a fraction
// of the transforms; the reference-counted cache with chained-diagonal
// traversal keeps the working set bounded, so the run never crosses the
// paging cliff that destroys a keep-everything implementation. The
// composite is then inspected through the on-demand viewer without ever
// materializing it.
package main

import (
	"fmt"
	"log"
	"time"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/fft"
	"hybridstitch/internal/global"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/memgov"
	"hybridstitch/internal/stitch"
)

func main() {
	log.SetFlags(0)

	// A 6×12 grid of 96×64 tiles: 72 transforms would be the "keep
	// everything" working set. Give the machine room for 28.
	params := imagegen.DefaultParams(6, 12, 96, 64)
	params.Grid.OverlapX, params.Grid.OverlapY = 0.3, 0.3
	dataset, err := imagegen.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	src := &stitch.MemorySource{DS: dataset}
	grid := src.Grid()

	// One "RAM unit" holds one transform: the half spectrum of a tile at
	// the size rule's frame.
	tw, th := fft.TransformSize(grid.TileW, grid.TileH, true)
	transformBytes := int64(th) * int64(tw/2+1) * 16
	const ramUnits = 28
	gov := memgov.New(ramUnits*transformBytes, 50*time.Nanosecond)

	fmt.Printf("plate: %d tiles; transforms would need %d 'RAM units', machine has %d\n",
		grid.NumTiles(), grid.NumTiles(), ramUnits)

	res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{
		Threads:   4,
		QueueCap:  4, // bound the reader's look-ahead so the working set is deterministic
		Governor:  gov,
		Traversal: stitch.TraverseChainedDiagonal,
	})
	if err != nil {
		log.Fatal(err)
	}
	_, peakBytes, faults, stalled := gov.Stats()
	fmt.Printf("stitched in %v: peak working set %d transforms (bound held), %d paging stalls (%v)\n",
		res.Elapsed.Round(time.Millisecond), peakBytes/transformBytes, faults, stalled.Round(time.Microsecond))
	if res.PeakTransformsLive > ramUnits {
		log.Fatalf("refcounting failed: %d transforms resident (limit %d)", res.PeakTransformsLive, ramUnits)
	}

	pl, err := global.Solve(res, global.Options{RepairOutliers: true})
	if err != nil {
		log.Fatal(err)
	}
	rms, err := global.RMSError(pl, dataset.TruthX, dataset.TruthY)
	if err != nil {
		log.Fatal(err)
	}

	// Inspect the result through the viewer: overview + a detail pan,
	// never composing the plate.
	viewer, err := compose.NewViewer(pl, src, 8)
	if err != nil {
		log.Fatal(err)
	}
	pw, ph := viewer.PlateBounds()
	overview, level, err := viewer.Overview(128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("placement RMS %.2f px; plate %dx%d viewed as %dx%d overview (level %d)\n",
		rms, pw, ph, overview.W, overview.H, level)
	for x := 0; x+64 <= pw; x += (pw - 64) / 3 {
		detail, err := viewer.Render(x, ph/3, 64, 48)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  pan x=%-4d 64x48 viewport mean=%.0f (tile cache: %d/8)\n",
			x, detail.Mean(), viewer.CacheLen())
	}
	fmt.Println("ok: bounded memory, full plate access")
}
