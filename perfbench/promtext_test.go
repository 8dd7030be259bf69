package main

import (
	"os"
	"strings"
	"testing"
)

// testdata/metrics.txt is a /metrics scrape captured from kgeserve after 36
// predicts (14 of them uncached approx searches) and one hot reload.
func TestParsePromCapturedSample(t *testing.T) {
	f, err := os.Open("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := parseProm(f)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		`kgeserve_requests_total{endpoint="predict"}`: 36,
		"kgeserve_approx_requests_total":              14,
		"kgeserve_approx_candidates_total":            14336,
		"kgeserve_cache_hits_total":                   3,
		"kgeserve_cache_misses_total":                 3,
		"kgeserve_reloads_total":                      1,
		"kgeserve_store_entities":                     2000,
	} {
		if got, ok := s[name]; !ok || got != want {
			t.Errorf("%s = %v (present %t), want %v", name, got, ok, want)
		}
	}
	h := s.hist("kgeserve_predict_latency_seconds")
	if h.count != 36 || len(h.bounds) != 17 || h.cum[len(h.cum)-1] != 36 {
		t.Fatalf("predict histogram: count %v, %d buckets, last %v", h.count, len(h.bounds), h.cum[len(h.cum)-1])
	}
	for i := 1; i < len(h.bounds); i++ {
		if h.bounds[i] <= h.bounds[i-1] || h.cum[i] < h.cum[i-1] {
			t.Fatalf("bucket %d out of order: %v", i, h)
		}
	}
	if q := h.quantile(0.5); q != 0.0005 {
		t.Errorf("median bucket %v, want 0.0005 (17 of 36 are at or below 0.00025s, 19 at or below 0.0005s)", q)
	}
	if m := h.mean(); m <= 0 || m > 0.0025 {
		t.Errorf("mean %v outside the populated buckets", m)
	}
	if b := s.hist("kgeserve_batch_size"); b.mean() != 1 {
		t.Errorf("batch size mean %v, want 1", b.mean())
	}
	approx := s.hist("kgeserve_approx_latency_seconds")
	exact := h.minus(approx)
	if exact.count != 22 || exact.cum[len(exact.cum)-1] != 22 {
		t.Errorf("predict minus approx: count %v, want 22", exact.count)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, in := range []string{"no_value_here", "x{a=\"b\"} notanumber"} {
		if _, err := parseProm(strings.NewReader(in)); err == nil {
			t.Errorf("parseProm(%q) succeeded", in)
		}
	}
	s, err := parseProm(strings.NewReader("# HELP x\n\nx 1.5\n"))
	if err != nil || s["x"] != 1.5 || len(s) != 1 {
		t.Errorf("comments and blank lines: %v, %v", s, err)
	}
}
