// Command genplate generates a synthetic microscopy dataset: a grid of
// overlapping 16-bit TIFF tiles cut from a rendered virtual plate with
// per-tile stage jitter, plus a ground-truth JSON file with the true tile
// positions. It stands in for the microscope acquisitions the paper's
// system consumed.
//
// Usage:
//
//	genplate -out dataset/ -rows 8 -cols 10 -tilew 256 -tileh 192
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tiffio"
	"hybridstitch/internal/tile"
)

// writeDataset writes tiles in DirSource layout, optionally tiled TIFF.
func writeDataset(dir string, ds *imagegen.Dataset, tiled int) error {
	if tiled <= 0 {
		return stitch.WriteDataset(dir, ds)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g := ds.Params.Grid
	for r := 0; r < g.Rows; r++ {
		for c := 0; c < g.Cols; c++ {
			coord := tile.Coord{Row: r, Col: c}
			f, err := os.Create(stitch.TilePath(dir, coord))
			if err != nil {
				return err
			}
			if err := tiffio.Encode(f, ds.Tile(coord), tiffio.EncodeOpts{TileW: tiled, TileH: tiled}); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeTruth writes the ground-truth sidecar stitch.OpenDataset reads.
func writeTruth(dir string, ds *imagegen.Dataset, overlap float64, jitter int, seed int64) error {
	g := ds.Params.Grid
	truth := stitch.DatasetMeta{
		Rows: g.Rows, Cols: g.Cols, TileW: g.TileW, TileH: g.TileH,
		OverlapX: overlap, OverlapY: overlap,
		MaxJitter: jitter, Seed: seed,
		TruthX: ds.TruthX, TruthY: ds.TruthY,
	}
	blob, err := json.MarshalIndent(truth, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "truth.json"), blob, 0o644)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("genplate: ")
	var (
		out     = flag.String("out", "dataset", "output directory")
		rows    = flag.Int("rows", 8, "grid rows")
		cols    = flag.Int("cols", 10, "grid columns")
		tileW   = flag.Int("tilew", 256, "tile width in pixels")
		tileH   = flag.Int("tileh", 192, "tile height in pixels")
		overlap = flag.Float64("overlap", 0.2, "nominal overlap fraction (both axes)")
		jitter  = flag.Int("jitter", 3, "max stage jitter in pixels")
		density = flag.Float64("density", 12, "cell colonies per megapixel (low = the paper's hard case)")
		noise   = flag.Float64("noise", 80, "sensor noise amplitude (16-bit counts)")
		drift   = flag.Float64("drift", 0, "thermal stage drift in px/row (row-dependent stride)")
		scans   = flag.Int("scans", 1, "scans of a time series; >1 writes scan000/, scan001/, ... subdirectories")
		tiled   = flag.Int("tiled", 0, "write tile-organized TIFFs with this tile size (multiple of 16; 0 = strips)")
		seed    = flag.Int64("seed", 1, "generation seed")
	)
	flag.Parse()

	p := imagegen.DefaultParams(*rows, *cols, *tileW, *tileH)
	p.Grid.OverlapX, p.Grid.OverlapY = *overlap, *overlap
	p.MaxJitter = *jitter
	p.ColonyDensity = *density
	p.NoiseAmp = *noise
	p.ThermalDrift = *drift
	p.Seed = *seed

	if *scans > 1 {
		series, err := imagegen.GenerateTimeSeries(imagegen.SeriesParams{Params: p, Scans: *scans})
		if err != nil {
			log.Fatal(err)
		}
		for i, sds := range series {
			dir := filepath.Join(*out, fmt.Sprintf("scan%03d", i))
			if err := writeDataset(dir, sds, *tiled); err != nil {
				log.Fatal(err)
			}
			if err := writeTruth(dir, sds, *overlap, *jitter, *seed); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("wrote %d scans of %d tiles each to %s/scanNNN/\n", *scans, p.Grid.NumTiles(), *out)
		return
	}

	ds, err := imagegen.Generate(p)
	if err != nil {
		log.Fatal(err)
	}
	if err := writeDataset(*out, ds, *tiled); err != nil {
		log.Fatal(err)
	}
	if err := writeTruth(*out, ds, *overlap, *jitter, *seed); err != nil {
		log.Fatal(err)
	}
	total := int64(*rows) * int64(*cols) * int64(*tileW) * int64(*tileH) * 2
	fmt.Printf("wrote %d tiles (%dx%d grid of %dx%d px, %.1f MB) + truth.json to %s\n",
		ds.Params.Grid.NumTiles(), *rows, *cols, *tileW, *tileH, float64(total)/1e6, *out)
}
