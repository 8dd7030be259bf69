package main

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"kgedist/internal/transport"
	"kgedist/internal/transport/chantransport"
)

// TestWrapperPassesMessagesThrough sends messages of every payload kind
// through wrapped channel endpoints and checks they arrive unchanged and
// are counted.
func TestWrapperPassesMessagesThrough(t *testing.T) {
	hub := chantransport.New(2)
	st := [2]*epStats{{}, {}}
	a := wrapEndpoint(hub.Endpoint(0), st[0])
	b := wrapEndpoint(hub.Endpoint(1), st[1])
	if a.Rank() != 0 || b.Rank() != 1 || a.Size() != 2 {
		t.Fatalf("rank/size not forwarded: %d %d %d", a.Rank(), b.Rank(), a.Size())
	}
	msgs := []transport.Message{
		{Seq: 1, F32: []float32{1.5, -2, 3}},
		{Seq: 2, I32: []int32{7, 8}},
		{Seq: 3, Raw: []byte("payload")},
		{Seq: 4, F64: 3.25},
	}
	var want int64
	for _, m := range msgs {
		if err := a.Send(1, m); err != nil {
			t.Fatal(err)
		}
		want += messageBytes(m)
	}
	for _, m := range msgs {
		got, err := b.Recv(0, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("received %+v, sent %+v", got, m)
		}
	}
	if n := st[0].sendCalls.Load(); n != int64(len(msgs)) {
		t.Errorf("send calls %d, want %d", n, len(msgs))
	}
	if n := st[0].sentBytes.Load(); n != want {
		t.Errorf("sent bytes %d, want %d", n, want)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, ep := range []*countingEndpoint{a, b} {
		wg.Add(1)
		go func(i int, ep *countingEndpoint) {
			defer wg.Done()
			errs[i] = ep.Rendezvous(nil)
		}(i, ep)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestWrapperForwardsFailures checks errors come back exactly as the
// wrapped endpoint returns them.
func TestWrapperForwardsFailures(t *testing.T) {
	hub := chantransport.New(2)
	raw := hub.Endpoint(0)
	a := wrapEndpoint(raw, &epStats{})
	if _, err := a.Recv(1, 10*time.Millisecond); !errors.Is(err, transport.ErrRecvTimeout) {
		t.Fatalf("timeout: got %v, want ErrRecvTimeout", err)
	}
	a.FailRank(1)
	if !reflect.DeepEqual(a.Failed(), raw.Failed()) || !reflect.DeepEqual(a.Failed(), []int{1}) {
		t.Fatalf("failed ranks %v, inner %v", a.Failed(), raw.Failed())
	}
	var rf *transport.RankFailedError
	if _, err := a.Recv(1, time.Second); !errors.As(err, &rf) || !reflect.DeepEqual(rf.Ranks, []int{1}) {
		t.Fatalf("recv after failure: %v", err)
	}
	if err := a.Rendezvous(nil); !errors.As(err, &rf) {
		t.Fatalf("rendezvous after failure: %v", err)
	}
	if !reflect.DeepEqual(a.Err(), raw.Err()) {
		t.Fatalf("Err %v, inner %v", a.Err(), raw.Err())
	}
	// The channel fabric cannot shrink; the wrapper says so instead of
	// pretending.
	if _, err := a.Shrink([]int{1}); err == nil {
		t.Fatal("shrinking a channel endpoint succeeded")
	}
}
