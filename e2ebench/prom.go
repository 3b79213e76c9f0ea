package main

import (
	"bufio"
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"

	"tencentrec"
)

// sample is one series line of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed exposition of the System's metrics registry. The
// benchmark reads the layers only through this public exposition, the
// same text GET /metrics serves to an operator.
type scrape []sample

func scrapeSystem(sys *tencentrec.System) scrape {
	var buf bytes.Buffer
	// WritePrometheus into a bytes.Buffer cannot fail.
	_ = sys.Registry().WritePrometheus(&buf)
	return parseExposition(buf.Bytes())
}

// parseExposition parses Prometheus text format 0.0.4 series lines,
// skipping comments and lines it cannot read.
func parseExposition(b []byte) scrape {
	var out scrape
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		head := line[:sp]
		s := sample{value: v}
		if i := strings.IndexByte(head, '{'); i >= 0 && strings.HasSuffix(head, "}") {
			s.name = head[:i]
			s.labels = parseLabels(head[i+1 : len(head)-1])
		} else {
			s.name = head
		}
		out = append(out, s)
	}
	return out
}

// parseLabels reads `a="x",b="y"` with backslash escapes in values.
func parseLabels(s string) map[string]string {
	m := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return m
		}
		key := s[:eq]
		var val strings.Builder
		i := eq + 2
		for ; i < len(s) && s[i] != '"'; i++ {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			val.WriteByte(s[i])
		}
		m[key] = val.String()
		s = strings.TrimPrefix(s[min(i+1, len(s)):], ",")
	}
	return m
}

// matches reports whether every want label is present with its value.
func (s sample) matches(want map[string]string) bool {
	for k, v := range want {
		if s.labels[k] != v {
			return false
		}
	}
	return true
}

// sum adds every series of a counter or gauge family matching want.
func (sc scrape) sum(name string, want map[string]string) float64 {
	var t float64
	for _, s := range sc {
		if s.name == name && s.matches(want) {
			t += s.value
		}
	}
	return t
}

// hist is a histogram family's buckets summed over matching series:
// per-bucket (not cumulative) counts keyed by upper bound.
type hist struct {
	les    []float64
	counts []float64
	count  float64
	sum    float64
}

// histogram collects a histogram family's buckets, summed over every
// series matching want. Each series lists its cumulative buckets from
// the lowest bound up to its highest populated one, and every series of
// a family shares the same bounds, so above its last listed bound a
// series' cumulative count is its total count.
func (sc scrape) histogram(name string, want map[string]string) hist {
	type series struct {
		cum   map[float64]float64
		top   float64
		count float64
	}
	byKey := map[string]*series{}
	get := func(l map[string]string) *series {
		ks := make([]string, 0, len(l))
		for k, v := range l {
			if k != "le" {
				ks = append(ks, k+"="+v)
			}
		}
		sort.Strings(ks)
		k := strings.Join(ks, ",")
		if byKey[k] == nil {
			byKey[k] = &series{cum: map[float64]float64{}, top: math.Inf(-1)}
		}
		return byKey[k]
	}
	bounds := map[float64]bool{}
	var h hist
	for _, s := range sc {
		if !s.matches(want) {
			continue
		}
		switch s.name {
		case name + "_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err != nil || math.IsInf(le, 1) {
				continue
			}
			ser := get(s.labels)
			ser.cum[le] = s.value
			ser.top = math.Max(ser.top, le)
			bounds[le] = true
		case name + "_count":
			get(s.labels).count = s.value
			h.count += s.value
		case name + "_sum":
			h.sum += s.value
		}
	}
	for le := range bounds {
		h.les = append(h.les, le)
	}
	sort.Float64s(h.les)
	prev := 0.0
	for _, le := range h.les {
		var total float64
		for _, ser := range byKey {
			if le > ser.top {
				total += ser.count
			} else {
				total += ser.cum[le]
			}
		}
		h.counts = append(h.counts, total-prev)
		prev = total
	}
	return h
}

// minus returns the observations h gained since an earlier reading.
func (h hist) minus(old hist) hist {
	out := hist{count: h.count - old.count, sum: h.sum - old.sum}
	oldCum := func(le float64) float64 {
		var c float64
		for i, l := range old.les {
			if l <= le {
				c += old.counts[i]
			}
		}
		if len(old.les) == 0 || le > old.les[len(old.les)-1] {
			return old.count
		}
		return c
	}
	var cum float64
	prev := 0.0
	for i, le := range h.les {
		cum += h.counts[i]
		d := cum - oldCum(le)
		out.les = append(out.les, le)
		out.counts = append(out.counts, d-prev)
		prev = d
	}
	return out
}

// quantile estimates the q-quantile by linear interpolation inside the
// power-of-two bucket holding it, as the registry's own summaries do.
func (h hist) quantile(q float64) float64 {
	if h.count <= 0 {
		return 0
	}
	rank := math.Ceil(q * h.count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	lo := 0.0
	for i, le := range h.les {
		n := h.counts[i]
		if n > 0 && cum+n >= rank {
			return lo + (le-lo)*(rank-cum)/n
		}
		cum += n
		lo = le
	}
	return lo
}
