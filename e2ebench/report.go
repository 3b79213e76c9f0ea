package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
)

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricInfo describes how a metric was measured, for the run
// description line: its sample count and, for a percentile, the highest
// percentile that sample supports.
type metricInfo struct {
	Unit      string  `json:"unit"`
	Samples   int     `json:"samples"`
	Windows   int     `json:"windows,omitempty"`
	Supported float64 `json:"supported_pct,omitempty"`
}

type report struct {
	metrics map[string]metricOut
	info    map[string]metricInfo
}

func newReport() *report {
	return &report{metrics: map[string]metricOut{}, info: map[string]metricInfo{}}
}

func (r *report) set(name string, v float64, unit string, samples int) {
	r.metrics[name] = metricOut{Value: v, Unit: unit}
	r.info[name] = metricInfo{Unit: unit, Samples: samples}
}

// setPct reports the q-quantile of d with its sample count and the
// highest percentile d supports.
func (r *report) setPct(name string, d dist, q float64, unit string) {
	r.metrics[name] = metricOut{Value: d.q(q), Unit: unit}
	r.info[name] = metricInfo{Unit: unit, Samples: d.n(), Supported: d.supported() * 100}
}

// setHist reports the q-quantile of a registry histogram, scaled to
// unit, with its observation count and the highest percentile that
// count supports.
func (r *report) setHist(name string, h hist, q, scale float64, unit string) {
	n := int(h.count)
	r.metrics[name] = metricOut{Value: h.quantile(q) * scale, Unit: unit}
	r.info[name] = metricInfo{Unit: unit, Samples: n, Supported: supportedAt(n) * 100}
}

// setWindowed reports a median over windows of a per-window percentile;
// minN is the smallest window's sample count.
func (r *report) setWindowed(name string, v float64, unit string, windows, minN int) {
	r.metrics[name] = metricOut{Value: v, Unit: unit}
	r.info[name] = metricInfo{Unit: unit, Samples: minN, Windows: windows,
		Supported: supportedAt(minN) * 100}
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// unsupported lists percentile metrics whose sample leaves fewer than
// minTail samples beyond them.
func (r *report) unsupported() []string {
	var out []string
	for name, in := range r.info {
		q := 0.0
		switch {
		case strings.Contains(name, "p99"):
			q = 99
		case strings.Contains(name, "p50"):
			q = 50
		default:
			continue
		}
		if in.Supported < q {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func writeJSONLine(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}
