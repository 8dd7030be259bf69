package main

import (
	"reflect"
	"testing"

	"kgedist/internal/xrand"
)

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	pool := makePool(xrand.New(3), 512)
	a := makeSchedule(42, 4000, serveRate, pool, serveZipfS)
	b := makeSchedule(42, 4000, serveRate, pool, serveZipfS)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, makeSchedule(43, 4000, serveRate, pool, serveZipfS)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if !reflect.DeepEqual(pool, makePool(xrand.New(3), 512)) {
		t.Fatal("same seed gave different query pools")
	}
}

func TestScheduleShape(t *testing.T) {
	pool := makePool(xrand.New(1), servePool)
	for _, q := range pool {
		if q.Fixed >= serveEntities-replayHeads || q.Rel >= serveRelations || (q.Side != "head" && q.Side != "tail") {
			t.Fatalf("pool query %+v reaches outside the traffic's id range", q)
		}
	}
	const n = 20000
	sched := makeSchedule(7, n, serveRate, pool, serveZipfS)
	approx := 0
	hits := map[query]int{}
	for i, a := range sched {
		if i > 0 && a.Due < sched[i-1].Due {
			t.Fatalf("arrival %d is due before arrival %d", i, i-1)
		}
		if a.Approx {
			approx++
		}
		hits[a.Q]++
	}
	if frac := float64(approx) / n; frac < 0.48 || frac > 0.52 {
		t.Errorf("approx share %.3f, want about half", frac)
	}
	// Open loop at the configured rate: n arrivals span about n/rate seconds.
	if span := sched[n-1].Due.Seconds(); span < 0.95*n/serveRate || span > 1.05*n/serveRate {
		t.Errorf("%d arrivals span %.1fs, want about %.1fs", n, span, n/serveRate)
	}
	// Zipf: the pool's first query is the most requested.
	for q, c := range hits {
		if c > hits[pool[0]] {
			t.Errorf("query %+v drawn %d times, more than rank 0's %d", q, c, hits[pool[0]])
		}
	}
}
