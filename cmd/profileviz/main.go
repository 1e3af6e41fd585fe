// Command profileviz reproduces the paper's profiler views (Figs 7 & 9):
// it runs the Simple-GPU or Pipelined-GPU implementation on the simulated
// device with the observability recorder enabled and renders the
// per-stream activity rows, utilization, and kernel-gap statistics. It
// can also render a previously captured Chrome trace (from
// `stitch -trace-out`) without re-running anything.
//
// Usage:
//
//	profileviz -impl simple
//	profileviz -impl pipelined -rows 8 -cols 8 -trace run.json
//	profileviz -in run.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"hybridstitch/internal/gpu"
	"hybridstitch/internal/imagegen"
	"hybridstitch/internal/obs"
	"hybridstitch/internal/stitch"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("profileviz: ")
	var (
		implFlag = flag.String("impl", "pipelined", "simple or pipelined")
		rows     = flag.Int("rows", 8, "grid rows")
		cols     = flag.Int("cols", 8, "grid columns")
		tileW    = flag.Int("tilew", 96, "tile width")
		tileH    = flag.Int("tileh", 64, "tile height")
		gpus     = flag.Int("gpus", 1, "device count (pipelined only)")
		width    = flag.Int("width", 110, "timeline width in characters")
		traceOut = flag.String("trace", "", "also write a Chrome-tracing JSON file (open in chrome://tracing or Perfetto)")
		inFile   = flag.String("in", "", "render an existing Chrome trace JSON (e.g. from stitch -trace-out) and exit")
	)
	flag.Parse()

	if *inFile != "" {
		if err := viewTrace(*inFile, *width); err != nil {
			log.Fatal(err)
		}
		return
	}

	var impl stitch.Stitcher
	switch *implFlag {
	case "simple":
		impl = &stitch.SimpleGPU{}
		*gpus = 1
	case "pipelined":
		impl = &stitch.PipelinedGPU{}
	default:
		log.Fatalf("unknown -impl %q (want simple or pipelined)", *implFlag)
	}

	p := imagegen.DefaultParams(*rows, *cols, *tileW, *tileH)
	ds, err := imagegen.Generate(p)
	if err != nil {
		log.Fatal(err)
	}
	src := &stitch.MemorySource{DS: ds, ReadDelay: time.Millisecond}

	// One recorder shared by the stitcher and every device keeps all
	// spans on a single clock so the combined trace lines up.
	rec := obs.New()
	defer rec.Close()

	var devs []*gpu.Device
	for d := 0; d < *gpus; d++ {
		dev := gpu.New(gpu.Config{
			Name: fmt.Sprintf("GPU%d", d), Obs: rec,
			H2DBytesPerSec: 2e9,
		})
		defer dev.Close()
		devs = append(devs, dev)
	}

	res, err := impl.Run(src, stitch.Options{Threads: 4, Devices: devs, Obs: rec})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %dx%d grid: %v\n\n", impl.Name(), *rows, *cols, res.Elapsed.Round(time.Millisecond))
	for _, dev := range devs {
		tl := dev.Timeline()
		spans := tl.Spans()
		if len(spans) == 0 {
			continue
		}
		from, to := spans[0].Start, spans[len(spans)-1].End
		fmt.Printf("--- %s ---\n%s", dev.Name(), tl.Render(*width))
		fmt.Printf("kernel-row utilization %.1f%% | kernel gaps >200µs: %d | spans: %d\n\n",
			100*tl.Utilization("kernel", from, to),
			tl.GapCount("kernel", 200*time.Microsecond), len(spans))
	}
	fmt.Print(rec.Summary())
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		werr := rec.WriteChromeTrace(f, map[string]string{"impl": impl.Name()})
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			log.Fatal(werr)
		}
		fmt.Printf("\nwrote combined trace to %s\n", *traceOut)
	}
}

// viewTrace renders a captured Chrome trace as ASCII timeline rows.
func viewTrace(path string, width int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.DecodeChromeTrace(f)
	if err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	fmt.Printf("%s: %d spans\n%s", path, len(spans), obs.RenderTracks(spans, width))
	return nil
}
