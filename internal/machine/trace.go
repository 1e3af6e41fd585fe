package machine

import (
	"io"
	"time"

	"hybridstitch/internal/obs"
)

// WriteTrace serializes a recorded model schedule as Chrome Trace Event
// JSON (one thread row per resource) — the virtual-time counterpart of
// the GPU simulator's profiler export. Opening the paper-scale
// Pipelined-GPU schedule in Perfetto shows the modeled Fig 9 directly.
func WriteTrace(w io.Writer, spans []TraceSpan, label string) error {
	out := make([]obs.CompletedSpan, len(spans))
	for i, s := range spans {
		out[i] = obs.CompletedSpan{
			Track: s.Resource, Name: s.Name, Seq: uint64(i),
			Start: time.Duration(s.Start * float64(time.Second)),
			End:   time.Duration(s.End * float64(time.Second)),
		}
	}
	return obs.EncodeChromeTrace(w, out, map[string]string{"model": label, "time": "virtual seconds → µs"})
}
