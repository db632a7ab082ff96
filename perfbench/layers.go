package main

import (
	"fmt"
	"time"

	"bloc/internal/locserver"
)

// perLayer makes the traced run and the layer replays, prints the layer
// table and returns the per-layer metrics plus any correctness violation
// the traced run saw. base is the untraced run's outcome.
func (h *harness) perLayer(tr *traffic, base outcome, rep *report) (map[string]metric, []string, error) {
	run, err := h.runTraced(tr)
	if err != nil {
		return nil, nil, err
	}
	bad := append([]string(nil), run.stray...)

	// Per-fix layer split over the measured rounds the master link saw
	// answered.
	var (
		lat, ready, bcast, deliv, unacc []float64
		rowSum                          = make([]float64, len(layerRows))
		rowVals                         = make([][]float64, len(layerRows))
		spanVals                        [numSpans][]float64
		gated, full, fallback           []float64
		attempts, gatedOK, fixes        int
		totalSum                        float64
	)
	for i, ft := range run.recs {
		if i >= tr.nWork || run.arr[i].n == 0 {
			continue
		}
		bad = append(bad, tierCheck(tr.workload, tr.rounds[i].key, &ft)...)
		if err := checkFix(tr.rounds[i].key, run.arr[i]); err != nil {
			bad = append(bad, "traced: "+err.Error())
		}
		if !tr.rounds[i].window || ft.fixes == 0 {
			continue
		}
		fixes++
		rows, total := decompose(run.gen.dueAt[i], run.gen.lastWrite[i], run.arr[i].at, &ft)
		sum := time.Duration(0)
		for r, d := range rows {
			sum += d
			rowSum[r] += ms(d)
			rowVals[r] = append(rowVals[r], ms(d))
		}
		if sum != total {
			bad = append(bad, fmt.Sprintf("tag %d round %d: layer rows sum to %v, latency is %v",
				tr.rounds[i].key.tag, tr.rounds[i].key.round, sum, total))
		}
		totalSum += ms(total)
		lat = append(lat, ms(total))
		ready = append(ready, ms(rows[1]))
		bcast = append(bcast, ms(rows[9]))
		deliv = append(deliv, ms(rows[10]))
		unacc = append(unacc, ms(rows[rowUnaccounted]))
		for sp := 0; sp < numSpans; sp++ {
			if ft.called[sp] {
				spanVals[sp] = append(spanVals[sp], us(ft.spans[sp]))
			}
		}
		if ft.called[spCoreLocate] && !ft.fpMiss {
			loc := ms(ft.spans[spCoreLocate])
			switch {
			case ft.gated:
				gated = append(gated, loc)
			case ft.fallback:
				fallback = append(fallback, loc)
			default:
				full = append(full, loc)
			}
			if ft.prior {
				attempts++
				if ft.gated {
					gatedOK++
				}
			}
		}
	}
	if fixes == 0 {
		return nil, nil, fmt.Errorf("traced %s run delivered no measured fixes", tr.workload)
	}

	rep.printf("layer split of the traced fix latency (%s, %d fixes; mean rows sum to the mean latency):\n", tr.workload, fixes)
	rep.printf("  %-22s %10s %10s %7s\n", "layer", "mean ms", "p50 ms", "share")
	for r, name := range layerRows {
		rep.printf("  %-22s %10.4f %10.4f %6.1f%%\n", name, rowSum[r]/float64(fixes),
			quantile(rowVals[r], 0.5), 100*rowSum[r]/totalSum)
	}
	rep.printf("  %-22s %10.4f %10.4f %6.1f%%\n", "total", totalSum/float64(fixes), quantile(lat, 0.5), 100.0)
	coreShare := (rowSum[2+spCoreLocate] + rowSum[2+spCoreObserve]) / totalSum
	rep.printf("  core share of latency: %.1f%%\n", 100*coreShare)

	// Layer replays.
	decode, err := decodeUsPerRow(tr)
	if err != nil {
		return nil, nil, err
	}
	ingest, _, err := h.replayIngest(tr, false)
	if err != nil {
		return nil, nil, err
	}
	allocs, kb, err := allocsPerFix(run.eng, run.replay)
	if err != nil {
		return nil, nil, err
	}

	st0, st1 := run.st0, run.st1
	tiers := float64((st1.TierGatedRounds - st0.TierGatedRounds) + (st1.TierFullRounds - st0.TierFullRounds) +
		(st1.TierFingerprintRounds - st0.TierFingerprintRounds) + (st1.TierCentroidRounds - st0.TierCentroidRounds))
	tierFrac := func(a, b int) metric { return metric{ratio(float64(b-a), tiers), "ratio"} }
	es0, es1 := run.es0, run.es1
	nf := float64(run.windowFixes)
	count := func(v int) metric { return metric{float64(v), "count"} }
	m := map[string]metric{
		"wire.decode_us_per_row":          {decode, "us"},
		"wire.bytes_per_round":            count(tr.bytesPerRound()),
		"wire.fix_delivery_ms_p50":        {quantile(deliv, 0.5), "ms"},
		"locserver.ready_ms_p50":          {quantile(ready, 0.5), "ms"},
		"locserver.ready_ms_p90":          {quantile(ready, 0.9), "ms"},
		"locserver.ingest_us_per_row":     {ingest, "us"},
		"locserver.broadcast_ms_p50":      {quantile(bcast, 0.5), "ms"},
		"locserver.rows_rejected_frac":    {ratio(float64(st1.RowsRejected-st0.RowsRejected), float64(run.windowRounds*anchors*tr.bands)), "ratio"},
		"locserver.queue_peak":            count(st1.QueuePeak),
		"locserver.shed":                  count(st1.OverloadShed - st0.OverloadShed),
		"locserver.evicted":               count(st1.Evicted - st0.Evicted),
		"locserver.quarantines":           count(st1.Quarantines - st0.Quarantines),
		"locserver.tier_gated_frac":       tierFrac(st0.TierGatedRounds, st1.TierGatedRounds),
		"locserver.tier_full_frac":        tierFrac(st0.TierFullRounds, st1.TierFullRounds),
		"locserver.tier_fingerprint_frac": tierFrac(st0.TierFingerprintRounds, st1.TierFingerprintRounds),
		"locserver.tier_centroid_frac":    tierFrac(st0.TierCentroidRounds, st1.TierCentroidRounds),
		"core.locate_gated_ms_p50":        {quantile(gated, 0.5), "ms"},
		"core.locate_full_ms_p50":         {quantile(full, 0.5), "ms"},
		"core.locate_fallback_ms_p50":     {quantile(fallback, 0.5), "ms"},
		"core.gate_success_frac":          {ratio(float64(gatedOK), float64(attempts)), "ratio"},
		"core.tile_frac":                  {ratio(float64(es1.TilesRefined-es0.TilesRefined), float64(es1.TilesTotal-es0.TilesTotal)), "ratio"},
		"core.pool_hit_frac":              {ratio(float64(es1.PoolHits-es0.PoolHits), float64(es1.PoolHits-es0.PoolHits+es1.PoolMisses-es0.PoolMisses)), "ratio"},
		"core.allocs_per_fix":             {allocs, "count"},
		"core.kb_per_fix":                 {kb, "KB"},
		"track.prior_us_p50":              {quantile(spanVals[spTrackPrior], 0.5), "us"},
		"track.update_us_p50":             {quantile(spanVals[spTrackUpdate], 0.5), "us"},
		"fingerprint.observe_us_p50":      {quantile(spanVals[spFPObserve], 0.5), "us"},
		"fingerprint.locate_us_p50":       {quantile(spanVals[spFPLocate], 0.5), "us"},
		"runtime.alloc_kb_per_fix":        {ratio(float64(run.ms1.TotalAlloc-run.ms0.TotalAlloc)/1024, nf), "KB"},
		"runtime.gc_per_1k_fixes":         {ratio(1000*float64(run.ms1.NumGC-run.ms0.NumGC), nf), "count"},
		"gen.late_ms_p99":                 {base.lateP99, "ms"},
		"trace.unaccounted_ms_p50":        {quantile(unacc, 0.5), "ms"},
		"trace.overhead_ms_p50":           {quantile(lat, 0.5) - quantile(base.lat, 0.5), "ms"},
	}
	rep.printf("per-layer (traced in-process run and replays):\n")
	for _, name := range perLayerNames {
		v := m[name]
		rep.printf("  %s %.6g %s%s\n", name, v.Value, v.Unit, sampleNote(name, spanVals, gated, full, fallback))
	}
	rep.printf("  core sample counts: gated %d, full %d, fallback %d; gate attempts %d; allocation replay %d fixes\n",
		len(gated), len(full), len(fallback), attempts, len(run.replay))
	return m, bad, nil
}

// perLayerNames is the report order of the per-layer metrics.
var perLayerNames = []string{
	"wire.decode_us_per_row", "wire.bytes_per_round", "wire.fix_delivery_ms_p50",
	"locserver.ready_ms_p50", "locserver.ready_ms_p90", "locserver.ingest_us_per_row",
	"locserver.broadcast_ms_p50", "locserver.rows_rejected_frac", "locserver.queue_peak",
	"locserver.shed", "locserver.evicted", "locserver.quarantines",
	"locserver.tier_gated_frac", "locserver.tier_full_frac", "locserver.tier_fingerprint_frac",
	"locserver.tier_centroid_frac",
	"core.locate_gated_ms_p50", "core.locate_full_ms_p50", "core.locate_fallback_ms_p50",
	"core.gate_success_frac", "core.tile_frac", "core.pool_hit_frac", "core.allocs_per_fix", "core.kb_per_fix",
	"track.prior_us_p50", "track.update_us_p50",
	"fingerprint.observe_us_p50", "fingerprint.locate_us_p50",
	"runtime.alloc_kb_per_fix", "runtime.gc_per_1k_fixes",
	"gen.late_ms_p99", "trace.unaccounted_ms_p50", "trace.overhead_ms_p50",
}

// sampleNote flags span percentiles taken over no samples.
func sampleNote(name string, spans [numSpans][]float64, gated, full, fallback []float64) string {
	n := -1
	switch name {
	case "core.locate_gated_ms_p50":
		n = len(gated)
	case "core.locate_full_ms_p50":
		n = len(full)
	case "core.locate_fallback_ms_p50":
		n = len(fallback)
	case "track.prior_us_p50":
		n = len(spans[spTrackPrior])
	case "track.update_us_p50":
		n = len(spans[spTrackUpdate])
	case "fingerprint.observe_us_p50":
		n = len(spans[spFPObserve])
	case "fingerprint.locate_us_p50":
		n = len(spans[spFPLocate])
	}
	if n < 0 {
		return ""
	}
	if n == 0 {
		return " (no samples: the layer is not on this workload's path)"
	}
	return fmt.Sprintf(" (n=%d)", n)
}

// tierCheck asserts the rung each workload must be served at: every
// degraded round by fingerprint KNN (never the centroid, never the CSI
// kernel), every tracked and acquire round by CSI.
func tierCheck(workload string, k roundKey, ft *fixTrace) []string {
	if ft.fixes == 0 {
		return nil
	}
	var bad []string
	if ft.fixes > 1 {
		bad = append(bad, fmt.Sprintf("traced: tag %d round %d delivered %d times", k.tag, k.round, ft.fixes))
	}
	switch workload {
	case "degraded":
		if ft.tier != locserver.TierFingerprint || ft.fpMiss || ft.called[spCoreLocate] {
			bad = append(bad, fmt.Sprintf("traced: degraded tag %d round %d served at %v (fingerprint fell through: %v)",
				k.tag, k.round, ft.tier, ft.fpMiss))
		}
	case "tracked", "acquire":
		if ft.tier != locserver.TierGatedCSI && ft.tier != locserver.TierFullCSI {
			bad = append(bad, fmt.Sprintf("traced: %s tag %d round %d served at %v, not a CSI tier",
				workload, k.tag, k.round, ft.tier))
		}
	}
	return bad
}
