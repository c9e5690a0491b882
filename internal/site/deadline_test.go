package site

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/scheduler"
)

// silentPeer listens on loopback, accepts every connection and never
// answers; stop closes the listener and every accepted connection.
func silentPeer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// A peer that accepts the multicast and never replies costs a schedule one
// SelectHosts deadline: the table comes from the live site, and the peer
// is recorded as a transient loss rather than a capacity refusal.
func TestSilentPeerDoesNotBlockScheduling(t *testing.T) {
	defer func(d time.Duration) { selectHostsDeadline = d }(selectHostsDeadline)
	selectHostsDeadline = 200 * time.Millisecond

	addr, stop := silentPeer(t)
	defer stop()
	silent := NewRemoteSelector("rome", addr)
	defer silent.Close()
	remotes := []scheduler.HostSelector{silent}

	local := newTestSite(t, "syracuse", 3, 10)
	local.TickMonitors()
	g := solverGraph(t)

	start := time.Now()
	table, err := local.SchedulePolicy(context.Background(), "faithful", g, remotes)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 2*selectHostsDeadline {
		t.Fatalf("schedule took %v with a silent peer, deadline %v", elapsed, selectHostsDeadline)
	}
	if len(table.Entries) != g.Len() {
		t.Fatalf("entries = %d, want %d", len(table.Entries), g.Len())
	}
	for _, a := range table.Entries {
		if a.Site != "syracuse" {
			t.Fatalf("task placed on the silent peer: %+v", a)
		}
	}

	diag := &scheduler.Diagnostics{}
	req := local.policyRequest(g, remotes, 0, 0)
	req.Diag = diag
	p, err := scheduler.Lookup("faithful")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Schedule(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	lost := diag.Transient()
	if len(lost) != 1 || lost[0].Site != "rome" || !errors.Is(lost[0].Err, context.DeadlineExceeded) {
		t.Fatalf("transient losses = %v, want the silent peer timing out", lost)
	}
	if refused := diag.CannotHost(); len(refused) != 0 {
		t.Fatalf("silent peer counted as a capacity refusal: %v", refused)
	}
}
