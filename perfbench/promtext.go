package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSample is one scraped /metrics exposition: series name (labels
// included, as printed) to value.
type promSample map[string]float64

// parseProm reads the Prometheus text exposition format kgeserve writes:
// `name{labels} value` lines, with # comments and blank lines ignored.
func parseProm(r io.Reader) (promSample, error) {
	out := promSample{}
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// Label values may hold spaces, so split at the last space.
		i := strings.LastIndexByte(text, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, text)
		}
		v, err := strconv.ParseFloat(text[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[strings.TrimSpace(text[:i])] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return out, nil
}

// histogram is a cumulative bucket histogram read back from a scrape.
type histogram struct {
	bounds []float64 // upper bounds, ascending; the last is +Inf
	cum    []float64 // cumulative counts per bound
	sum    float64
	count  float64
}

// hist extracts histogram name (its _bucket, _sum and _count series).
func (s promSample) hist(name string) histogram {
	var h histogram
	prefix := name + `_bucket{le="`
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(strings.TrimPrefix(k, prefix), `"}`)
		b := math.Inf(1)
		if le != "+Inf" {
			var err error
			if b, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		h.bounds = append(h.bounds, b)
		h.cum = append(h.cum, v)
	}
	idx := make([]int, len(h.bounds))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return h.bounds[idx[a]] < h.bounds[idx[b]] })
	bounds := make([]float64, len(idx))
	cum := make([]float64, len(idx))
	for i, j := range idx {
		bounds[i], cum[i] = h.bounds[j], h.cum[j]
	}
	h.bounds, h.cum = bounds, cum
	h.sum = s[name+"_sum"]
	h.count = s[name+"_count"]
	return h
}

// minus returns h - o bucket by bucket (o must share h's bounds), clamping
// at zero: the part of h's observations o does not account for.
func (h histogram) minus(o histogram) histogram {
	d := histogram{bounds: h.bounds, cum: make([]float64, len(h.cum))}
	for i := range h.cum {
		if i < len(o.cum) {
			d.cum[i] = math.Max(0, h.cum[i]-o.cum[i])
		} else {
			d.cum[i] = h.cum[i]
		}
	}
	d.sum = math.Max(0, h.sum-o.sum)
	d.count = math.Max(0, h.count-o.count)
	return d
}

// mean returns sum/count, or 0 with no observations.
func (h histogram) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// quantile returns the upper bound of the bucket holding the q-quantile
// (0..1), or the last finite bound when it falls in the overflow bucket.
func (h histogram) quantile(q float64) float64 {
	if len(h.cum) == 0 || h.cum[len(h.cum)-1] <= 0 {
		return 0
	}
	target := q * h.cum[len(h.cum)-1]
	lastFinite := 0.0
	for i, c := range h.cum {
		if !math.IsInf(h.bounds[i], 1) {
			lastFinite = h.bounds[i]
		}
		if c >= target {
			if math.IsInf(h.bounds[i], 1) {
				return lastFinite
			}
			return h.bounds[i]
		}
	}
	return lastFinite
}
