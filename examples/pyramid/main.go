// Pyramid: the paper's future-work visualization tool "will generate
// image pyramids for all the tiles in a grid and render a stitched image
// at varying resolutions" (its Figs 13 and 14 come from that prototype).
// This example stitches a plate, renders every level of its
// multi-resolution pyramid on demand with a Viewer, and writes one PNG
// per level plus the highlighted-tile view.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hybridstitch/internal/compose"
	"hybridstitch/internal/global"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
)

func main() {
	log.SetFlags(0)
	outDir := "pyramid_out"
	if len(os.Args) > 1 {
		outDir = os.Args[1]
	}

	params := imagegen.DefaultParams(5, 7, 128, 96)
	dataset, err := imagegen.Generate(params)
	if err != nil {
		log.Fatal(err)
	}
	src := &stitch.MemorySource{DS: dataset}

	res, err := (&stitch.PipelinedCPU{}).Run(src, stitch.Options{Threads: 4})
	if err != nil {
		log.Fatal(err)
	}
	pl, err := global.Solve(res, global.Options{RepairOutliers: true})
	if err != nil {
		log.Fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}
	viewer, err := compose.NewViewer(pl, src, 0)
	if err != nil {
		log.Fatal(err)
	}
	w, h := viewer.PlateBounds()
	levels := tiffio.PyramidLevelDims(w, h, 64)
	for i := range levels {
		lvl, err := viewer.RenderScaled(0, 0, w, h, i)
		if err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(outDir, fmt.Sprintf("level%d_%dx%d.png", i, lvl.W, lvl.H))
		if err := compose.WritePNGFile(path, lvl); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("level %d: %dx%d → %s\n", i, lvl.W, lvl.H, path)
	}

	full, err := compose.Compose(pl, src, compose.BlendOverlay)
	if err != nil {
		log.Fatal(err)
	}
	gridPath := filepath.Join(outDir, "highlight.png")
	if err := compose.WriteRGBAPNGFile(gridPath, compose.HighlightGrid(full, pl)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tile-outline view (the paper's Fig 14) → %s\n", gridPath)
	fmt.Printf("ok: %d pyramid levels from a %dx%d plate\n", len(levels), w, h)
}
