// Package chaos is the fault-injection layer for gdsxd's robustness
// proof. It has two halves: a server-side middleware that injects
// handler panics and response stalls (mounted INSIDE the server's
// recovery layer, so every injected panic must come back as a
// structured 500), and client-side request generators — slow-loris
// bodies, OOM-quota requests, mid-run context cancellations,
// FaultPlan-armed guard rollbacks — used by the chaos tests. Nothing
// here runs in production paths; gdsxd mounts the middleware only
// behind its -chaos flag.
package chaos

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Config selects which faults the middleware injects. Every interval
// is "one in N requests" (0 disables that fault).
type Config struct {
	// PanicEvery makes one in N requests panic inside the handler
	// chain.
	PanicEvery int
	// DelayEvery makes one in N requests stall for Delay before being
	// handled (simulating a slow dependency).
	DelayEvery int
	Delay      time.Duration
	// Seed makes the injection schedule reproducible.
	Seed int64
}

// Middleware returns the fault-injecting middleware. Mount it inside
// the server's recovery layer: srv.Handler(chaos.Middleware(cfg)).
func Middleware(cfg Config) func(http.Handler) http.Handler {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(cfg.Seed))
	roll := func(n int) bool {
		if n <= 0 {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		return rng.Intn(n) == 0
	}
	var injected atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if roll(cfg.PanicEvery) {
				injected.Add(1)
				panic("chaos: injected handler panic")
			}
			if roll(cfg.DelayEvery) {
				d := cfg.Delay
				if d <= 0 {
					d = 50 * time.Millisecond
				}
				select {
				case <-time.After(d):
				case <-r.Context().Done():
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// SlowBody returns an io.Reader that dribbles data out in chunks with
// a pause between each — a cooperative slow-loris body for exercising
// the HTTP server's read timeouts without holding a real socket open.
func SlowBody(data []byte, chunk int, pause time.Duration) io.Reader {
	if chunk <= 0 {
		chunk = 1
	}
	return &slowReader{data: data, chunk: chunk, pause: pause}
}

type slowReader struct {
	data  []byte
	chunk int
	pause time.Duration
	off   int
}

func (s *slowReader) Read(p []byte) (int, error) {
	if s.off >= len(s.data) {
		return 0, io.EOF
	}
	if s.off > 0 && s.pause > 0 {
		time.Sleep(s.pause)
	}
	n := s.chunk
	if n > len(p) {
		n = len(p)
	}
	if rem := len(s.data) - s.off; n > rem {
		n = rem
	}
	copy(p, s.data[s.off:s.off+n])
	s.off += n
	return n, nil
}

// CancelAfter returns a context that cancels itself after d — the
// client that disconnects mid-region.
func CancelAfter(parent context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	timer := time.AfterFunc(d, cancel)
	return ctx, func() { timer.Stop(); cancel() }
}
