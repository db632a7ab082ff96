package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"bloc/internal/wire"
)

// link is one anchor's connection to the server.
type link struct {
	conn net.Conn
	mu   sync.Mutex // serializes writes: round frames from the sender, heartbeat echoes from the reader
}

// Write writes b in one call under the link's lock.
func (l *link) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn.Write(b)
}

// arrival is the first fix the master link received for a round.
type arrival struct {
	at   time.Duration // since the generator's clock origin
	x, y float64
	n    int // fixes received for the round; more than one is a duplicate
}

// generator plays the four anchors: it offers pre-encoded rounds open
// loop from one sending goroutine, drains fix broadcasts on all four links
// (echoing heartbeats, or the server would prune the links) and
// timestamps every fix the master link receives.
type generator struct {
	tr     *traffic
	origin time.Time
	links  [anchors]*link
	got    chan int // round indexes whose first fix arrived

	mu    sync.Mutex
	arr   []arrival // by round index; guarded by mu
	stray []string  // fixes answering no offered round; guarded by mu
	wg    sync.WaitGroup

	// Filled by play, read after it returns.
	dueAt     []time.Duration // when each round was due, since origin
	lastWrite []time.Duration // when each round's last write returned
	late      []time.Duration // how late each round's first write started
}

// dial connects the four anchors to addr, retrying until the server
// listens or timeout passes, and says hello on each link.
func dial(addr string, tr *traffic, origin time.Time, timeout time.Duration) (*generator, error) {
	g := &generator{
		tr:        tr,
		origin:    origin,
		got:       make(chan int, len(tr.rounds)), // one send per round at most
		arr:       make([]arrival, len(tr.rounds)),
		dueAt:     make([]time.Duration, len(tr.rounds)),
		lastWrite: make([]time.Duration, len(tr.rounds)),
	}
	giveUp := time.Now().Add(timeout)
	for a := 0; a < anchors; a++ {
		var conn net.Conn
		for {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				conn = c
				break
			}
			if time.Now().After(giveUp) {
				g.close()
				return nil, fmt.Errorf("dial anchor %d to %s: %w", a, addr, err)
			}
			time.Sleep(time.Millisecond)
		}
		g.links[a] = &link{conn: conn}
		hello := &wire.Hello{Version: wire.ProtocolVersion, AnchorID: uint8(a), Antennas: antennas, Bands: uint16(tr.bands)}
		if err := wire.Send(conn, hello); err != nil {
			g.close()
			return nil, fmt.Errorf("hello from anchor %d: %w", a, err)
		}
		g.wg.Add(1)
		go g.read(a)
	}
	return g, nil
}

func (g *generator) now() time.Duration { return time.Since(g.origin) }

// read drains one link until it closes.
func (g *generator) read(a int) {
	defer g.wg.Done()
	l := g.links[a]
	br := bufio.NewReader(l.conn)
	for {
		t, payload, err := wire.ReadFrame(br)
		if err != nil {
			return
		}
		switch t {
		case wire.TypeHeartbeat:
			if wire.WriteFrame(l, wire.TypeHeartbeat, payload) != nil {
				return
			}
		case wire.TypeFix:
			if a == 0 {
				g.record(g.now(), payload)
			}
		}
	}
}

func (g *generator) record(at time.Duration, payload []byte) {
	f, err := wire.UnmarshalFix(payload)
	g.mu.Lock()
	if err != nil {
		g.stray = append(g.stray, fmt.Sprintf("undecodable fix: %v", err))
		g.mu.Unlock()
		return
	}
	idx, ok := g.tr.index[roundKey{tag: f.TagID, round: f.Round}]
	if !ok {
		g.stray = append(g.stray, fmt.Sprintf("fix for tag %d round %d, which was never offered", f.TagID, f.Round))
		g.mu.Unlock()
		return
	}
	a := &g.arr[idx]
	a.n++
	first := a.n == 1
	if first {
		a.at, a.x, a.y = at, f.X, f.Y
	}
	g.mu.Unlock()
	if first {
		g.got <- idx
	}
}

// send writes one round, one write per anchor link.
func (g *generator) send(idx int) error {
	for a, l := range g.links {
		if _, err := l.Write(g.tr.rounds[idx].frames[a]); err != nil {
			return fmt.Errorf("anchor %d write: %w", a, err)
		}
	}
	g.lastWrite[idx] = g.now()
	return nil
}

// awaitFix waits for the first fix of round idx.
func (g *generator) awaitFix(idx int, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case got := <-g.got:
			if got == idx {
				return nil
			}
		case <-timer.C:
			return fmt.Errorf("no fix for round %+v within %v", g.tr.rounds[idx].key, timeout)
		}
	}
}

// wakeEarly is how long before a round is due the sender stops sleeping
// and spins: a Go timer can fire up to a millisecond late, which would
// add the generator's own lateness to every fix it times.
const wakeEarly = 1100 * time.Microsecond

// play offers the workload rounds open loop: each round's writes start
// when it is due, whatever the server has answered. before, when set,
// runs just before each round is sent, with the round's index. After the last round it waits
// until every round has its fix or the latency limit has passed.
func (g *generator) play(before func(i int)) error {
	n := g.tr.nWork
	g.late = make([]time.Duration, n)
	start := g.now() + 5*time.Millisecond
	for i := 0; i < n; i++ {
		r := &g.tr.rounds[i]
		due := start + r.due
		g.dueAt[i] = due
		if wait := due - wakeEarly - g.now(); wait > 0 {
			time.Sleep(wait)
		}
		for g.now() < due {
			runtime.Gosched()
		}
		if before != nil {
			before(i)
		}
		g.late[i] = g.now() - due
		if err := g.send(i); err != nil {
			return err
		}
	}
	// Rounds answered before this point already sit in got; count them
	// and wait for the rest.
	pending := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		pending[i] = true
	}
	deadline := time.NewTimer(g.dueAt[n-1] + fixLimit + 50*time.Millisecond - g.now())
	defer deadline.Stop()
	for len(pending) > 0 {
		select {
		case idx := <-g.got:
			delete(pending, idx)
		case <-deadline.C:
			return nil
		}
	}
	return nil
}

// close shuts every link and waits for the readers to exit.
func (g *generator) close() {
	for _, l := range g.links {
		if l != nil {
			l.conn.Close()
		}
	}
	g.wg.Wait()
}

// results returns the arrivals and stray fixes; call after close.
func (g *generator) results() ([]arrival, []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.arr, g.stray
}
