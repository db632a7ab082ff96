package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bloc/internal/core"
	"bloc/internal/geom"
)

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name, Why string
	}
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesHarness checks that BENCHMARK.json names the
// harness's workloads and states the fix_ok_frac latency limit in each
// workload's why.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, harness %d", len(bf.Workloads), len(workloads))
	}
	limit := strings.TrimSuffix(fixLimit.String(), "ms") + " ms"
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i])
		}
		if !strings.Contains(w.Why, limit) {
			t.Errorf("workload %s: why does not state the %s latency limit", w.Name, limit)
		}
	}
}

// TestSmoke makes a seconds-long run of every workload, traced and not,
// and checks that every metric BENCHMARK.json names prints by name with
// its unit, in the report and in the JSON line.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs bloc-server")
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			code := run(options{workload: w, seed: 3, seconds: 1, trace: trace}, "..", &out)
			if code != 0 {
				t.Errorf("%s trace=%v: exit %d\n%s", w, trace, code, out.String())
				continue
			}
			text := strings.TrimSpace(out.String())
			lines := strings.Split(text, "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("%s trace=%v: last line is not the result: %v", w, trace, err)
				continue
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d", w, trace, res.Correct, res.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			report := strings.Join(lines[:len(lines)-1], "\n")
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w, trace, m.Name, got, m.Unit)
				}
				if !strings.Contains(report, m.Name+" ") || !strings.Contains(report, " "+m.Unit) {
					t.Errorf("%s trace=%v: report does not print %s with its unit %s", w, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

// TestServerDefaultsMatchTracedConfig checks the flag defaults the traced
// run's serverConfig mirrors against the built bloc-server's own.
func TestServerDefaultsMatchTracedConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("builds bloc-server")
	}
	dir := t.TempDir()
	bin, err := buildServer(context.Background(), "..", dir)
	if err != nil {
		t.Fatal(err)
	}
	out, _ := exec.Command(bin, "-h").CombinedOutput() // -h exits 2 after printing the defaults
	defaults := map[string]string{}
	var flagName string
	for _, line := range strings.Split(string(out), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[0], "-") {
			flagName = f[0][1:]
		}
		if i := strings.Index(line, "(default "); i >= 0 && flagName != "" {
			defaults[flagName] = strings.TrimSuffix(line[i+len("(default "):], ")")
		}
	}
	dep, err := newDeployment()
	if err != nil {
		t.Fatal(err)
	}
	cfg := serverConfig(dep, nil, nil, nil)
	for flagName, want := range map[string]string{
		"anchors":           "4",
		"antennas":          "4",
		"seed":              "1",
		"round-deadline":    cfg.RoundDeadline.String(),
		"min-bands":         "1",
		"heartbeat":         cfg.HeartbeatInterval.String(),
		"fix-workers":       "2",
		"fix-queue":         "64",
		"breaker-threshold": "3",
		"breaker-cooldown":  cfg.Breaker.Cooldown.String(),
	} {
		if got := defaults[flagName]; got != want {
			t.Errorf("bloc-server -%s defaults to %q, the traced config uses %q", flagName, got, want)
		}
	}
	if cfg.FixBudget != 0 || cfg.AdaptiveDeadline || cfg.Checkpoint != nil {
		t.Errorf("traced config enables an option bloc-server leaves off by default: %+v", cfg)
	}
}

// TestGateRejectsWrongFixes feeds the correctness gate fixes that are
// wrong in each way it checks.
func TestGateRejectsWrongFixes(t *testing.T) {
	room := geom.NewRect(geom.Pt(-2.5, -3), geom.Pt(2.5, 3))
	tr := &traffic{
		workload: "tracked",
		rounds: []round{
			{key: roundKey{tag: 1000, round: 0}, pos: geom.Pt(0, 0), window: true},
			{key: roundKey{tag: 1001, round: 0}, pos: geom.Pt(1, 1), window: true},
			{key: roundKey{tag: 1002, round: 0}, pos: geom.Pt(1, 1), window: true},
			{key: roundKey{tag: 1003, round: 0}, pos: geom.Pt(1, 1), window: true},
		},
		nWork: 4,
		room:  room,
		bands: 37,
	}
	g := &generator{tr: tr, dueAt: make([]time.Duration, 4), late: make([]time.Duration, 4)}
	arr := []arrival{
		{at: time.Millisecond, x: 0.1, y: 0.1, n: 1},      // correct
		{at: time.Millisecond, x: math.NaN(), y: 1, n: 1}, // non-finite
		{at: time.Millisecond, x: 1, y: 1, n: 2},          // answered twice
		{at: time.Millisecond, x: 9, y: 1, n: 1},          // outside the room: answered, not ok
	}
	sc := score(tr, g, arr, []string{"fix for tag 7 round 0, which was never offered"})
	if len(sc.invalid) != 3 {
		t.Errorf("gate flagged %d fixes, want 3 (stray, non-finite, duplicate): %q", len(sc.invalid), sc.invalid)
	}
	if sc.ok != 1 || sc.outside != 1 || sc.answered != 2 {
		t.Errorf("ok=%d outside=%d answered=%d, want 1, 1 and 2", sc.ok, sc.outside, sc.answered)
	}
	if sc2 := score(tr, g, []arrival{arr[0], {}, {}, {}}, nil); len(sc2.invalid) != 0 || sc2.ok != 1 {
		t.Errorf("a correct fix was flagged: %q", sc2.invalid)
	}
}

// TestAcquireGateRejectsWrongFix serves a few acquire fixes straight from
// core.Engine, then moves one by a single ulp: the bit-identity gate must
// pass the first set and catch the wrong fix.
func TestAcquireGateRejectsWrongFix(t *testing.T) {
	if testing.Short() {
		t.Skip("sounds and localizes a second of acquire traffic")
	}
	h := &harness{}
	var err error
	if h.dep, err = newDeployment(); err != nil {
		t.Fatal(err)
	}
	tr, err := buildTraffic(h.dep, "acquire", 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, snaps, err := h.replayIngest(tr, true)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(h.dep.Anchors, core.DefaultConfig(h.dep.Env.Room))
	if err != nil {
		t.Fatal(err)
	}
	const served = 8 // rounds given a fix; the rest count as unanswered
	arr := make([]arrival, len(tr.rounds))
	for i := 0; i < served; i++ {
		res, err := eng.LocateOpts(snaps[i].snap, core.LocateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		arr[i] = arrival{x: res.Estimate.X, y: res.Estimate.Y, n: 1}
	}
	matched, compared, _, err := h.acquireMatch(tr, arr)
	if err != nil || matched != compared || compared != served {
		t.Fatalf("faithful fixes: matched %d of %d (err %v)", matched, compared, err)
	}
	arr[3].x = math.Nextafter(arr[3].x, math.Inf(1))
	matched, compared, mism, err := h.acquireMatch(tr, arr)
	if err != nil || matched != compared-1 || len(mism) != 1 {
		t.Fatalf("one wrong fix: matched %d of %d, mismatches %q (err %v)", matched, compared, mism, err)
	}
}

// TestDecomposeSumsToLatency checks that a fix's layer rows, unaccounted
// included, add up exactly to its latency for arbitrary timelines.
func TestDecomposeSumsToLatency(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	d := func() time.Duration { return time.Duration(rng.IntN(5_000_000)) }
	for n := 0; n < 1000; n++ {
		due := d()
		lastWrite := due + d()
		ft := fixTrace{snapIn: lastWrite + d()}
		at := ft.snapIn
		for sp := 0; sp < numSpans; sp++ {
			if rng.IntN(2) == 0 {
				continue
			}
			at += d() / 10 // a gap no span covers
			ft.add(sp, d()/10)
			at += ft.spans[sp]
		}
		ft.snapOut = at + d()/10
		ft.onFix = ft.snapOut + d()
		recv := ft.onFix + d() - time.Millisecond // receipt may precede OnFix
		rows, total := decompose(due, lastWrite, recv, &ft)
		var sum time.Duration
		for _, r := range rows {
			sum += r
		}
		if sum != total || total != recv-due {
			t.Fatalf("rows sum to %v, latency %v (recv-due %v)", sum, total, recv-due)
		}
		if rows[rowUnaccounted] < 0 {
			t.Fatalf("negative unaccounted time %v", rows[rowUnaccounted])
		}
	}
	if len(layerRows) != 5+numSpans || layerRows[rowUnaccounted] != "unaccounted" {
		t.Fatalf("layer rows out of step with the spans: %v", layerRows)
	}
}
