package main

import (
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"sync"
	"time"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/fingerprint"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/testbed"
	"bloc/internal/track"
	"bloc/internal/wire"
)

// serverConfig is the locserver.Config bloc-server builds from its flag
// defaults plus -min-anchors 3 and -fingerprint.
func serverConfig(dep *testbed.Deployment, logger *slog.Logger,
	onSnap func(locserver.RoundInfo, *csi.Snapshot) (geom.Point, error),
	onFix func(locserver.RoundInfo, wire.Fix)) locserver.Config {
	return locserver.Config{
		Anchors:           anchors,
		Antennas:          antennas,
		Bands:             dep.Bands,
		RoundDeadline:     2 * time.Second,
		MinAnchors:        3,
		MinBands:          1,
		HeartbeatInterval: 2 * time.Second,
		FixWorkers:        2,
		FixQueueDepth:     64,
		Breaker:           locserver.BreakerConfig{Threshold: 3, Cooldown: 2 * time.Second},
		Fingerprint:       true,
		OnSnapshot:        onSnap,
		OnFix:             onFix,
		Logger:            logger,
	}
}

// Spans recorded inside the snapshot callback, each around calls into one
// layer's public functions.
const (
	spFPObserve   = iota // fingerprint.Signature + Filter.Observe
	spTrackPrior         // Filter.ConfidenceEllipse + GatePolicy.Prior
	spCoreLocate         // Engine.LocateOpts, or Engine.LocateRSSI on the centroid rung
	spCoreObserve        // GatePolicy.Observe
	spFPLocate           // Filter.Signature + DB.Locate
	spTrackUpdate        // track.New + Filter.Update
	numSpans
)

var spanNames = [numSpans]string{
	"fingerprint.observe", "track.prior", "core.locate", "core.observe", "fingerprint.locate", "track.update",
}

// fixTrace is one round's timeline in the traced run, all times since
// the generator's clock origin.
type fixTrace struct {
	snapIn, snapOut, onFix time.Duration
	spans                  [numSpans]time.Duration
	called                 [numSpans]bool
	tier                   locserver.FixTier
	prior, gated, fallback bool // the CSI fix had a prior; was served gated; fell back to the full grid
	fpMiss                 bool // the fingerprint rung fell through to the centroid
	fixes                  int  // OnFix calls
}

func (ft *fixTrace) add(sp int, d time.Duration) {
	ft.spans[sp] += d
	ft.called[sp] = true
}

// replayInput is one LocateOpts call kept for the allocation replay.
type replayInput struct {
	snap *csi.Snapshot
	opts core.LocateOptions
}

// tracedState is bloc-server's per-tag state and snapshot callback,
// calling the same public functions in the same order, with a span
// around each call.
type tracedState struct {
	tr    *traffic
	eng   *core.Engine
	fpdb  *fingerprint.DB
	clock func() time.Duration
	recs  []fixTrace // by round index; each written by the one worker serving that round

	mu    sync.Mutex
	cal   *core.Calibration // never set: the benchmark runs without -calibrate
	trks  map[uint16]*track.Filter
	last  map[uint16]int64
	gates map[uint16]*core.GatePolicy
	fps   map[uint16]*fingerprint.Filter

	replayMu sync.Mutex
	replay   []replayInput // guarded by replayMu
}

// maxReplay bounds the LocateOpts inputs kept for the allocation replay.
const maxReplay = 200

func (ts *tracedState) rec(tag uint16, rnd uint32) *fixTrace {
	if i, ok := ts.tr.index[roundKey{tag: tag, round: rnd}]; ok {
		return &ts.recs[i]
	}
	return &fixTrace{} // never offered: the generator flags the fix
}

func (ts *tracedState) onSnapshot(info locserver.RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
	ft := ts.rec(info.Tag, info.Round)
	ft.snapIn = ts.clock()
	defer func() { ft.snapOut = ts.clock() }()
	ts.observeRSSI(ft, info.Tag, snap)
	if info.Coarse {
		if info.Tier == locserver.TierFingerprint {
			if p, err := ts.fingerprintFix(ft, info.Tag); err == nil {
				return ts.smooth(ft, info.Tag, p), nil
			}
		}
		ft.fpMiss = true
		t := ts.clock()
		res, err := ts.eng.LocateRSSI(snap)
		ft.add(spCoreLocate, ts.clock()-t)
		if err != nil {
			return geom.Point{}, err
		}
		return ts.smooth(ft, info.Tag, res.Estimate), nil
	}
	if cal := ts.calibration(); cal != nil {
		if corrected, err := cal.Apply(snap); err == nil {
			snap = corrected
		}
	}
	var prior *core.Prior
	if info.Tracked {
		prior = ts.prior(ft, info.Tag)
	}
	opts := core.LocateOptions{Ref: info.Ref, Prior: prior}
	t := ts.clock()
	res, err := ts.eng.LocateOpts(snap, opts)
	ft.add(spCoreLocate, ts.clock()-t)
	if err != nil {
		return geom.Point{}, err
	}
	ft.prior, ft.gated, ft.fallback = prior != nil, res.Gated, res.Fallback != ""
	if i, ok := ts.tr.index[roundKey{tag: info.Tag, round: info.Round}]; ok && ts.tr.rounds[i].window {
		ts.replayMu.Lock()
		if len(ts.replay) < maxReplay {
			if prior != nil {
				p := *prior
				opts.Prior = &p
			}
			ts.replay = append(ts.replay, replayInput{snap: snap, opts: opts})
		}
		ts.replayMu.Unlock()
	}
	if prior != nil {
		ts.observe(ft, info.Tag, res)
	}
	return ts.smooth(ft, info.Tag, res.Estimate), nil
}

func (ts *tracedState) onFix(info locserver.RoundInfo, fix wire.Fix) {
	ft := ts.rec(fix.TagID, fix.Round)
	ft.onFix = ts.clock()
	ft.tier = info.Tier
	ft.fixes++
}

func (ts *tracedState) observeRSSI(ft *fixTrace, tag uint16, snap *csi.Snapshot) {
	t := ts.clock()
	sig := fingerprint.Signature(snap)
	ft.add(spFPObserve, ts.clock()-t)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t = ts.clock()
	filt := ts.fps[tag]
	if filt == nil {
		filt = fingerprint.NewFilter(ts.fpdb.Anchors, fingerprint.FilterOptions{})
		ts.fps[tag] = filt
	}
	filt.Observe(sig)
	ft.add(spFPObserve, ts.clock()-t)
}

func (ts *tracedState) fingerprintFix(ft *fixTrace, tag uint16) (geom.Point, error) {
	var sig []float64
	ts.mu.Lock()
	if filt := ts.fps[tag]; filt != nil {
		t := ts.clock()
		sig = filt.Signature()
		ft.add(spFPLocate, ts.clock()-t)
	}
	ts.mu.Unlock()
	if sig == nil {
		return geom.Point{}, fingerprint.ErrNoMatch
	}
	t := ts.clock()
	p, err := ts.fpdb.Locate(sig)
	ft.add(spFPLocate, ts.clock()-t)
	return p, err
}

func (ts *tracedState) prior(ft *fixTrace, tag uint16) *core.Prior {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	f := ts.trks[tag]
	if f == nil {
		return nil
	}
	t := ts.clock()
	defer func() { ft.add(spTrackPrior, ts.clock()-t) }()
	ell, ok := f.ConfidenceEllipse(1)
	if !ok {
		return nil
	}
	g := ts.gates[tag]
	if g == nil {
		g = core.NewGatePolicy()
		ts.gates[tag] = g
	}
	p := g.Prior(ell.Center, ell.SemiMajor, ell.SemiMinor, ell.Theta)
	return &p
}

func (ts *tracedState) observe(ft *fixTrace, tag uint16, res *core.Result) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if g := ts.gates[tag]; g != nil {
		t := ts.clock()
		g.Observe(res)
		ft.add(spCoreObserve, ts.clock()-t)
	}
}

func (ts *tracedState) calibration() *core.Calibration {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.cal
}

func (ts *tracedState) smooth(ft *fixTrace, tag uint16, raw geom.Point) geom.Point {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	t := ts.clock()
	defer func() { ft.add(spTrackUpdate, ts.clock()-t) }()
	f := ts.trks[tag]
	if f == nil {
		nf, err := track.New(track.DefaultConfig())
		if err != nil {
			return raw
		}
		f = nf
		ts.trks[tag] = f
	}
	now := time.Now().UnixNano()
	dt := 0.1
	if last := ts.last[tag]; last != 0 && now > last {
		dt = float64(now-last) / float64(time.Second)
	}
	pos, ok, err := f.Update(raw, dt)
	if err != nil || !ok {
		if f.Initialized() {
			return pos
		}
		return raw
	}
	ts.last[tag] = now
	return pos
}

// tracedRun is the in-process traced replay of one workload.
type tracedRun struct {
	gen          *generator
	arr          []arrival
	stray        []string
	recs         []fixTrace
	st0, st1     locserver.Stats
	es0, es1     core.Stats
	ms0, ms1     runtime.MemStats
	replay       []replayInput
	eng          *core.Engine
	windowFixes  int
	windowRounds int
}

// runTraced serves the workload from locserver.New in-process, configured
// as the binary configures it, with the generator driving it over the
// same loopback sockets.
func (h *harness) runTraced(tr *traffic) (*tracedRun, error) {
	eng, err := core.NewEngine(h.dep.Anchors, core.DefaultConfig(h.dep.Env.Room))
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(h.path("traced.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	origin := time.Now()
	ts := &tracedState{
		tr: tr, eng: eng, fpdb: h.fpdb,
		clock: func() time.Duration { return time.Since(origin) },
		recs:  make([]fixTrace, len(tr.rounds)),
		trks:  make(map[uint16]*track.Filter),
		last:  make(map[uint16]int64),
		gates: make(map[uint16]*core.GatePolicy),
		fps:   make(map[uint16]*fingerprint.Filter),
	}
	logger := slog.New(slog.NewTextHandler(logf, nil))
	srv, err := locserver.New("127.0.0.1:0", serverConfig(h.dep, logger, ts.onSnapshot, ts.onFix))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	g, err := dial(srv.Addr(), tr, origin, 10*time.Second)
	if err != nil {
		return nil, err
	}
	warm := tr.warm(nSetups - 1)
	if err := g.send(warm); err != nil {
		g.close()
		return nil, err
	}
	if err := g.awaitFix(warm, 30*time.Second); err != nil {
		g.close()
		return nil, err
	}
	run := &tracedRun{gen: g, eng: eng}
	first := tr.windowRounds()[0]
	err = g.play(func(i int) {
		if i == first {
			run.st0, run.es0 = srv.Stats(), eng.Stats()
			runtime.ReadMemStats(&run.ms0)
		}
	})
	run.st1, run.es1 = srv.Stats(), eng.Stats()
	runtime.ReadMemStats(&run.ms1)
	g.close()
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("traced %s run: %w", tr.workload, err)
	}
	run.arr, run.stray = g.results()
	run.recs = ts.recs
	run.replay = ts.replay
	for _, i := range tr.windowRounds() {
		run.windowRounds++
		if run.arr[i].n > 0 {
			run.windowFixes++
		}
	}
	return run, nil
}

// Layer rows of one fix's latency, in blocking-path order. Every row is a
// span between consecutive timestamps, or one of the callback's inner
// spans; unaccounted is the callback time no inner span covers, so the
// rows of a fix always sum to its latency.
var layerRows = []string{
	"gen.send", "locserver.ready",
	spanNames[spFPObserve], spanNames[spTrackPrior], spanNames[spCoreLocate],
	spanNames[spCoreObserve], spanNames[spFPLocate], spanNames[spTrackUpdate],
	"unaccounted", "locserver.broadcast", "wire.fix_delivery",
}

const rowUnaccounted = 8

// decompose splits one fix's latency — due time to the master link's
// receipt — into layerRows.
func decompose(due, lastWrite, recv time.Duration, ft *fixTrace) (rows []time.Duration, total time.Duration) {
	rows = make([]time.Duration, len(layerRows))
	rows[0] = lastWrite - due
	rows[1] = ft.snapIn - lastWrite
	inner := time.Duration(0)
	for sp := 0; sp < numSpans; sp++ {
		rows[2+sp] = ft.spans[sp]
		inner += ft.spans[sp]
	}
	rows[rowUnaccounted] = ft.snapOut - ft.snapIn - inner
	rows[9] = ft.onFix - ft.snapOut
	rows[10] = recv - ft.onFix
	return rows, recv - due
}
