package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bloc/internal/geom"
)

// fixLimit is the latency limit of fix_ok_frac: a round answered later
// counts as failed. BENCHMARK.json states it in every workload's why.
const fixLimit = 250 * time.Millisecond

// lateBound rejects a run whose generator started its p99 round later
// than this after the round was due: such a run measures the generator.
const lateBound = 50 * time.Millisecond

// A shared host goes through spells of minutes in which the hypervisor
// steals 10-20% of this machine's CPU time; a window measured in one reads
// up to twice the latency of a calm one, on every sub-window alike. Before
// the set-ups the harness loads every CPU for calmProbe and reads the
// host steal over it; while that exceeds calmSteal it sleeps calmPause and
// probes again, for at most calmBudget, then measures whatever the host
// gives.
const (
	calmSteal  = 0.02
	calmProbe  = time.Second
	calmPause  = 4 * time.Second
	calmBudget = 60 * time.Second
)

// awaitCalm probes the host until it is calm or calmBudget has passed. It
// returns the time spent and the last probe's host steal.
func awaitCalm() (time.Duration, float64) {
	t0 := time.Now()
	for {
		s0, n0, err := hostTicks()
		if err != nil {
			return time.Since(t0), 0
		}
		spin(calmProbe)
		s1, n1, err := hostTicks()
		if err != nil {
			return time.Since(t0), 0
		}
		steal := ratio(float64(s1-s0), float64(n1-n0))
		if steal <= calmSteal || time.Since(t0)+calmPause+calmProbe > calmBudget {
			return time.Since(t0), steal
		}
		time.Sleep(calmPause)
	}
}

// spin keeps every CPU busy for d.
func spin(d time.Duration) {
	end := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
			}
		}()
	}
	wg.Wait()
}

// e2eRun is one untraced run against the real bloc-server binary.
type e2eRun struct {
	calmWait  time.Duration // spent in awaitCalm
	calmSteal float64       // host steal of its last probe
	setups    []float64     // seconds from exec to the warm-up round's fix, one per set-up
	gen       *generator
	arr       []arrival
	stray     []string
	cpu       time.Duration // server CPU over the measured window
	steal     float64       // share of host CPU time stolen by the hypervisor over the window
	subSteal  []float64     // the same, per sub-window
	peakMB    float64       // server VmHWM before shutdown
	logTail   string        // server stderr tail, for failure reports
}

// runBinary sets the server up nSetups times — each a fresh bloc-server
// process answering one warm-up round — and plays the workload against
// the last one.
func (h *harness) runBinary(tr *traffic) (*e2eRun, error) {
	run := &e2eRun{}
	run.calmWait, run.calmSteal = awaitCalm()
	origin := time.Now()
	var (
		p *serverProc
		g *generator
	)
	for i := 0; i < nSetups; i++ {
		t0 := time.Now()
		var err error
		p, err = h.start(filepath.Join(h.tmp, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		g, err = dial(p.addr, tr, origin, 30*time.Second)
		if err == nil {
			err = g.send(tr.warm(i))
		}
		if err == nil {
			err = g.awaitFix(tr.warm(i), 30*time.Second)
		}
		if err != nil {
			if g != nil {
				g.close()
			}
			p.stop()
			return nil, fmt.Errorf("set-up %d: %w\nserver log tail:\n%s", i, err, p.stderrTail(20))
		}
		run.setups = append(run.setups, time.Since(t0).Seconds())
		if i < nSetups-1 {
			g.close()
			p.stop()
		}
	}
	defer p.stop()
	// Server CPU is read when the window opens and closes; host steal at
	// every sub-window boundary as well.
	window := tr.windowRounds()
	nSub := subWindows(len(window))
	starts := map[int]int{} // first round index of each sub-window → sub-window
	for pos, i := range window {
		if k := subWindow(pos, len(window)); pos == 0 || k != subWindow(pos-1, len(window)) {
			starts[i] = k
		}
	}
	var (
		cpu0   time.Duration
		cpuErr error
		steal  = make([][2]int64, nSub+1) // host steal and total ticks at each boundary
	)
	err := g.play(func(i int) {
		k, ok := starts[i]
		if !ok {
			return
		}
		if k == 0 {
			cpu0, cpuErr = p.cpu()
		}
		steal[k][0], steal[k][1], _ = hostTicks() // diagnostic only
	})
	cpu1, err1 := p.cpu()
	steal[nSub][0], steal[nSub][1], _ = hostTicks()
	run.subSteal = make([]float64, nSub)
	for k := range run.subSteal {
		run.subSteal[k] = ratio(float64(steal[k+1][0]-steal[k][0]), float64(steal[k+1][1]-steal[k][1]))
	}
	run.steal = ratio(float64(steal[nSub][0]-steal[0][0]), float64(steal[nSub][1]-steal[0][1]))
	peak, err2 := p.peakRSSMB()
	g.close()
	p.stop()
	run.logTail = p.stderrTail(20)
	for _, e := range []error{err, cpuErr, err1, err2} {
		if e != nil {
			return nil, fmt.Errorf("%s run: %w\nserver log tail:\n%s", tr.workload, e, run.logTail)
		}
	}
	run.gen, run.cpu, run.peakMB = g, cpu1-cpu0, peak
	run.arr, run.stray = g.results()
	return run, nil
}

// outcome scores the measured window of a run.
type outcome struct {
	attempted, ok, delivered int
	answered                 int         // window rounds answered once, finite, within fixLimit
	outside                  int         // delivered window fixes outside the room: not ok
	lat                      []float64   // ms from due to fix, delivered window rounds
	sub                      [][]float64 // lat split by sub-window of the measured window
	errCM                    []float64   // cm from ground truth, delivered window rounds
	invalid                  []string    // correctness violations, any round
	lateP50, lateP99         float64     // ms, generator lateness
}

// score checks every fix the master link received and measures the
// window: latency from each round's due time, accuracy against the
// generator's ground truth, the rounds answered (once, with a finite fix,
// within fixLimit) and the share of those whose fix also lies inside the
// room (ok).
func score(tr *traffic, g *generator, arr []arrival, stray []string) outcome {
	var o outcome
	o.invalid = append(o.invalid, stray...)
	for i, a := range arr {
		if a.n == 0 {
			continue
		}
		if err := checkFix(tr.rounds[i].key, a); err != nil {
			o.invalid = append(o.invalid, err.Error())
		}
	}
	late := make([]float64, 0, len(g.late))
	for _, d := range g.late {
		late = append(late, ms(d))
	}
	o.lateP50, o.lateP99 = quantile(late, 0.5), quantile(late, 0.99)
	window := tr.windowRounds()
	o.sub = make([][]float64, subWindows(len(window)))
	for pos, i := range window {
		o.attempted++
		a := arr[i]
		if a.n == 0 {
			continue
		}
		o.delivered++
		lat := a.at - g.dueAt[i]
		o.lat = append(o.lat, ms(lat))
		k := subWindow(pos, len(window))
		o.sub[k] = append(o.sub[k], ms(lat))
		o.errCM = append(o.errCM, 100*math.Hypot(a.x-tr.rounds[i].pos.X, a.y-tr.rounds[i].pos.Y))
		valid := checkFix(tr.rounds[i].key, a) == nil
		inRoom := tr.room.Contains(geom.Pt(a.x, a.y))
		if !inRoom && valid {
			o.outside++
		}
		if lat <= fixLimit && valid {
			o.answered++
			if inRoom {
				o.ok++
			}
		}
	}
	return o
}

// subRounds is the size of a sub-window of the measured window, in
// rounds: enough for 15 samples beyond each sub-window's p90. Host
// interference on a shared machine (hypervisor steal, neighbours' load)
// arrives in bursts of 5-10 s that raise every fix's latency while they
// last. A latency percentile reported as the lower quartile over
// sub-windows of each one's percentile ignores bursts that cover up to
// three quarters of the window, where the pooled percentile of the run
// swings with every burst; a slower program raises every sub-window and
// moves it as much as the pooled one.
const subRounds = 150

// subWindows is how many sub-windows a window of n rounds splits into.
func subWindows(n int) int { return max(1, n/subRounds) }

// subWindow is the sub-window of the pos-th of n window rounds.
func subWindow(pos, n int) int { return pos * subWindows(n) / n }

// subQuantile is the lower quartile over sub-windows of each one's
// q-quantile.
func subQuantile(sub [][]float64, q float64) float64 {
	var per []float64
	for _, xs := range sub {
		if len(xs) > 0 {
			per = append(per, quantile(xs, q))
		}
	}
	return quantile(per, 0.25)
}

// checkFix is the per-fix correctness gate: a round is answered at most
// once, with a finite position. (Fixes for rounds never offered are
// caught when they arrive.) A finite fix outside the room is not a gate
// failure: score counts it against fix_ok_frac.
func checkFix(k roundKey, a arrival) error {
	switch {
	case a.n > 1:
		return fmt.Errorf("tag %d round %d answered %d times", k.tag, k.round, a.n)
	case math.IsNaN(a.x) || math.IsNaN(a.y) || math.IsInf(a.x, 0) || math.IsInf(a.y, 0):
		return fmt.Errorf("tag %d round %d: non-finite fix (%v, %v)", k.tag, k.round, a.x, a.y)
	}
	return nil
}
