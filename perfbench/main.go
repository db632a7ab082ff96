// Command perfbench is BLoc's serving benchmark. It builds the real
// bloc-server from the tree under test, plays the paper deployment's four
// anchors over loopback TCP with one of three seeded open-loop tag
// workloads, and reports what a user of the server sees: fix latency,
// accuracy, server CPU and memory (--trace 0). With --trace 1 it also
// replays the same traffic into an in-process server, configured as the
// binary configures itself, with spans around every call into a layer,
// and reports each fix's latency split across wire, locserver, core,
// track and fingerprint.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload tracked --seed 1 --seconds 25 --trace 0
//
// Workloads: tracked (32 walking tags, one round each per 500 ms, served
// on the prior-gated kernel), acquire (30 never-seen tags per second,
// full grid) and degraded (tracked, with anchors 2 and 3 reporting NaN
// tones, so every round is served by fingerprint KNN). The last line of
// standard output is one JSON object with the keys correct, attempted,
// failed and metrics. The command exits non-zero when a correctness check
// fails, and without a result when the run cannot be made.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"bloc/internal/fingerprint"
	"bloc/internal/testbed"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "tracked", "workload: tracked, acquire or degraded")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: positions, paths and schedules")
	flag.IntVar(&o.seconds, "seconds", 25, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced run and reports per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	os.Exit(run(o, ".", os.Stdout))
}

// run performs one benchmark invocation from the repository root and
// returns the exit code.
func run(o options, root string, out io.Writer) int {
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	h, err := newHarness(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer h.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
			h.cleanup()
			os.Exit(1)
		case <-done:
		}
	}()
	res, err := h.bench(o, out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// harness owns one invocation's temporary directory, server binary and the
// servers it starts.
type harness struct {
	root string
	tmp  string
	bin  string
	dep  *testbed.Deployment
	fpdb *fingerprint.DB
	fpf  string // the survey file bloc-server loads

	mu    sync.Mutex
	procs []*serverProc
	done  bool
}

func newHarness(root string) (*harness, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &harness{root: root, tmp: tmp}, nil
}

func (h *harness) path(name string) string { return filepath.Join(h.tmp, name) }

// start launches a bloc-server and registers it for cleanup.
func (h *harness) start(logPath string) (*serverProc, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return nil, errors.New("harness shutting down")
	}
	p, err := startServer(h.bin, h.fpf, logPath)
	if err != nil {
		return nil, err
	}
	h.procs = append(h.procs, p)
	return p, nil
}

// cleanup kills every server still running and removes the temporary
// directory; safe to call more than once and from the signal handler.
func (h *harness) cleanup() {
	h.mu.Lock()
	procs := h.procs
	h.procs, h.done = nil, true
	h.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	os.RemoveAll(h.tmp)
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDeadline bounds one invocation after the server build.
const runDeadline = 170 * time.Second

func (h *harness) bench(o options, out io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 850*time.Second)
	defer cancel()
	var err error
	if h.bin, err = buildServer(ctx, h.root, h.tmp); err != nil {
		return nil, err
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v\n", runDeadline)
		h.cleanup()
		os.Exit(1)
	})
	defer watchdog.Stop()

	t0 := time.Now()
	if h.dep, err = newDeployment(); err != nil {
		return nil, err
	}
	if h.fpdb, err = survey(h.dep); err != nil {
		return nil, err
	}
	h.fpf = h.path("site.fpdb")
	if err := fingerprint.WriteFile(h.fpf, h.fpdb); err != nil {
		return nil, err
	}
	tr, err := buildTraffic(h.dep, o.workload, o.seed, o.seconds)
	if err != nil {
		return nil, err
	}
	rep := &report{out: out}
	rep.header(h, o, tr, time.Since(t0))

	run, err := h.runBinary(tr)
	if err != nil {
		return nil, err
	}
	sc := score(tr, run.gen, run.arr, run.stray)
	if sc.lateP99 > ms(lateBound) {
		return nil, fmt.Errorf("generator ran late: p99 %.2f ms > bound %v; the run measured the generator, not the server",
			sc.lateP99, lateBound)
	}
	res := &result{
		Correct:   len(sc.invalid) == 0,
		Attempted: sc.attempted,
		Failed:    sc.attempted - sc.answered,
		Metrics:   map[string]metric{},
	}
	e2e := endToEnd(run, sc)
	rep.endToEnd(run, sc, e2e)
	if o.workload == "acquire" {
		matched, compared, mism, err := h.acquireMatch(tr, run.arr)
		if err != nil {
			return nil, err
		}
		frac := ratio(float64(matched), float64(compared))
		rep.printf("acquire fix_match_frac %.6f ratio (%d of %d fixes bit-identical to Engine.LocateOpts(snap, {Ref: 0}))\n",
			frac, matched, compared)
		if matched != compared || compared == 0 {
			res.Correct = false
			sc.invalid = append(sc.invalid, mism...)
		}
	}
	if !o.trace {
		res.Metrics = e2e
	} else {
		layers, bad, err := h.perLayer(tr, sc, rep)
		if err != nil {
			return nil, err
		}
		res.Metrics = layers
		if len(bad) > 0 {
			res.Correct = false
			sc.invalid = append(sc.invalid, bad...)
		}
	}
	rep.failures(sc.invalid, run.logTail)
	return res, nil
}

// endToEnd computes the user-visible metrics of the untraced run.
func endToEnd(run *e2eRun, sc outcome) map[string]metric {
	return map[string]metric{
		"setup_s":               {quantile(run.setups, 0.5), "s"},
		"fix_ms_p50":            {subQuantile(sc.sub, 0.5), "ms"},
		"fix_ms_p90":            {subQuantile(sc.sub, 0.9), "ms"},
		"fix_ok_frac":           {ratio(float64(sc.ok), float64(sc.attempted)), "ratio"},
		"err_cm_p50":            {quantile(sc.errCM, 0.5), "cm"},
		"server_cpu_ms_per_fix": {ratio(ms(run.cpu), float64(sc.delivered)), "ms"},
		"server_rss_mb":         {run.peakMB, "MB"},
	}
}
