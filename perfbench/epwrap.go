package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"kgedist/internal/transport"
)

// epStats is one rank's transport ledger. Fields are atomics because an
// endpoint's methods may be called from several goroutines at once.
type epStats struct {
	sendCalls    atomic.Int64
	sentBytes    atomic.Int64
	sendNS       atomic.Int64 // time inside Send: framing, CRC and backpressure
	recvWaitNS   atomic.Int64 // time inside Recv: the peer's compute shows up here
	rendezvousNS atomic.Int64 // time inside Rendezvous (barriers)
}

// countingEndpoint forwards every call to the wrapped endpoint unchanged,
// results and errors included, and records calls, bytes and the time each
// call took into a ledger shared across Shrink generations.
type countingEndpoint struct {
	inner transport.Endpoint
	st    *epStats
}

var (
	_ transport.Endpoint = (*countingEndpoint)(nil)
	_ transport.Shrinker = (*countingEndpoint)(nil)
)

// wrapEndpoint returns ep with its calls recorded into st.
func wrapEndpoint(ep transport.Endpoint, st *epStats) *countingEndpoint {
	return &countingEndpoint{inner: ep, st: st}
}

// messageBytes is the payload a message carries: its vectors plus the
// 8-byte scalar slot.
func messageBytes(m transport.Message) int64 {
	return 8 + 4*int64(len(m.F32)) + 4*int64(len(m.I32)) + int64(len(m.Raw))
}

func (c *countingEndpoint) Rank() int { return c.inner.Rank() }
func (c *countingEndpoint) Size() int { return c.inner.Size() }

func (c *countingEndpoint) Send(dst int, m transport.Message) error {
	start := time.Now()
	err := c.inner.Send(dst, m)
	c.st.sendNS.Add(int64(time.Since(start)))
	c.st.sendCalls.Add(1)
	if err == nil {
		c.st.sentBytes.Add(messageBytes(m))
	}
	return err
}

func (c *countingEndpoint) Recv(src int, timeout time.Duration) (transport.Message, error) {
	start := time.Now()
	m, err := c.inner.Recv(src, timeout)
	c.st.recvWaitNS.Add(int64(time.Since(start)))
	return m, err
}

func (c *countingEndpoint) Rendezvous(onLast func()) error {
	start := time.Now()
	err := c.inner.Rendezvous(onLast)
	c.st.rendezvousNS.Add(int64(time.Since(start)))
	return err
}

func (c *countingEndpoint) FailRank(rank int) { c.inner.FailRank(rank) }
func (c *countingEndpoint) Failed() []int     { return c.inner.Failed() }
func (c *countingEndpoint) Err() error        { return c.inner.Err() }
func (c *countingEndpoint) Close() error      { return c.inner.Close() }

// Shrink re-meshes the wrapped endpoint and keeps recording into the same
// ledger. An endpoint that cannot shrink fails the way mpi reports it.
func (c *countingEndpoint) Shrink(dead []int) (transport.Endpoint, error) {
	sh, ok := c.inner.(transport.Shrinker)
	if !ok {
		return nil, fmt.Errorf("transport %T cannot shrink", c.inner)
	}
	next, err := sh.Shrink(dead)
	if err != nil {
		return nil, err
	}
	return wrapEndpoint(next, c.st), nil
}
