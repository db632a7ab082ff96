package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"time"

	"bloc/internal/core"
	"bloc/internal/csi"
	"bloc/internal/geom"
	"bloc/internal/locserver"
	"bloc/internal/wire"
)

// capturedRound is a round as a fresh server assembled it.
type capturedRound struct {
	info locserver.RoundInfo
	snap *csi.Snapshot
}

// replayIngest feeds the last set-up's warm-up round and then every
// workload round, decoded from their recorded frames, into a fresh
// in-process server through Server.IngestRow — each anchor's rows in the
// order that anchor sent them — and returns the IngestRow busy time per
// measured row. With capture it also waits for and returns every round
// the server assembled, by round index.
func (h *harness) replayIngest(tr *traffic, capture bool) (float64, map[int]capturedRound, error) {
	var mu sync.Mutex
	got := make(map[int]capturedRound)
	onSnap := func(info locserver.RoundInfo, snap *csi.Snapshot) (geom.Point, error) {
		if capture {
			if i, ok := tr.index[roundKey{tag: info.Tag, round: info.Round}]; ok {
				mu.Lock()
				got[i] = capturedRound{info: info, snap: snap}
				mu.Unlock()
			}
		}
		return tr.room.Center(), nil
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := locserver.New("127.0.0.1:0", serverConfig(h.dep, logger, onSnap, nil))
	if err != nil {
		return 0, nil, err
	}
	defer srv.Close()
	order := append([]int{tr.warm(nSetups - 1)}, seq(tr.nWork)...)
	var busy time.Duration
	rows := 0
	for _, i := range order {
		var batch []*wire.CSIRow
		for a := 0; a < anchors; a++ {
			r := bytes.NewReader(tr.rounds[i].frames[a])
			for r.Len() > 0 {
				_, payload, err := wire.ReadFrame(r)
				if err != nil {
					return 0, nil, err
				}
				row, err := wire.UnmarshalCSIRow(payload)
				if err != nil {
					return 0, nil, err
				}
				batch = append(batch, row)
			}
		}
		t := time.Now()
		for _, row := range batch {
			srv.IngestRow(row)
		}
		if tr.rounds[i].window {
			busy += time.Since(t)
			rows += len(batch)
		}
	}
	if capture {
		giveUp := time.Now().Add(30 * time.Second)
		for {
			mu.Lock()
			n := len(got)
			mu.Unlock()
			if n == len(order) {
				break
			}
			if time.Now().After(giveUp) {
				return 0, nil, fmt.Errorf("replay assembled %d of %d rounds", n, len(order))
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := srv.Close(); err != nil {
		return 0, nil, err
	}
	mu.Lock()
	defer mu.Unlock()
	return ratio(us(busy), float64(rows)), got, nil
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// acquireMatch recomputes every delivered acquire fix on a fresh
// core.Engine from the snapshot a fresh server assembles from the same
// frames, and reports how many delivered fixes are bit-identical to
// Engine.LocateOpts(snap, {Ref: 0}) — the tag's first tracker update
// passes the raw estimate through unsmoothed.
func (h *harness) acquireMatch(tr *traffic, arr []arrival) (matched, compared int, mismatches []string, err error) {
	_, snaps, err := h.replayIngest(tr, true)
	if err != nil {
		return 0, 0, nil, err
	}
	eng, err := core.NewEngine(h.dep.Anchors, core.DefaultConfig(h.dep.Env.Room))
	if err != nil {
		return 0, 0, nil, err
	}
	var idx []int
	for i := 0; i < tr.nWork; i++ {
		if arr[i].n > 0 {
			idx = append(idx, i)
		}
	}
	ref := make([]geom.Point, len(idx))
	errs := make([]error, len(idx))
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := w; j < len(idx); j += workers {
				res, err := eng.LocateOpts(snaps[idx[j]].snap, core.LocateOptions{Ref: 0})
				if err != nil {
					errs[j] = err
					continue
				}
				ref[j] = res.Estimate
			}
		}(w)
	}
	wg.Wait()
	for j, i := range idx {
		compared++
		a, k := arr[i], tr.rounds[i].key
		switch {
		case errs[j] != nil:
			mismatches = append(mismatches, fmt.Sprintf("tag %d: reference fix failed: %v", k.tag, errs[j]))
		case math.Float64bits(a.x) != math.Float64bits(ref[j].X) || math.Float64bits(a.y) != math.Float64bits(ref[j].Y):
			mismatches = append(mismatches, fmt.Sprintf("tag %d: served (%v, %v), reference (%v, %v)",
				k.tag, a.x, a.y, ref[j].X, ref[j].Y))
		default:
			matched++
		}
	}
	return matched, compared, mismatches, nil
}

// decodeUsPerRow replays ReadFrame + UnmarshalCSIRow over the measured
// rounds' recorded frames: the median of three passes, per row.
func decodeUsPerRow(tr *traffic) (float64, error) {
	var passes []float64
	for pass := 0; pass < 3; pass++ {
		rows := 0
		t := time.Now()
		for _, i := range tr.windowRounds() {
			for _, f := range tr.rounds[i].frames {
				r := bytes.NewReader(f)
				for r.Len() > 0 {
					_, payload, err := wire.ReadFrame(r)
					if err != nil {
						return 0, err
					}
					if _, err := wire.UnmarshalCSIRow(payload); err != nil {
						return 0, err
					}
					rows++
				}
			}
		}
		passes = append(passes, ratio(us(time.Since(t)), float64(rows)))
	}
	return quantile(passes, 0.5), nil
}

// allocsPerFix replays recorded LocateOpts calls, with their priors, on
// the traced run's warm engine and returns allocations and KB allocated
// per fix.
func allocsPerFix(eng *core.Engine, in []replayInput) (allocs, kb float64, err error) {
	if len(in) == 0 {
		return 0, 0, nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range in {
		if _, err := eng.LocateOpts(r.snap, r.opts); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(len(in))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / n, nil
}
