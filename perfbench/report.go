package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"bloc/internal/ble"
)

// report prints the human-readable part of the output; the JSON result
// line follows it.
type report struct {
	out io.Writer
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

func (r *report) header(h *harness, o options, tr *traffic, setup time.Duration) {
	trace := 0
	if o.trace {
		trace = 1
	}
	r.printf("perfbench workload=%s seed=%d seconds=%d trace=%d\n", o.workload, o.seed, o.seconds, trace)
	r.printf("host: cpu=%q num_cpu=%d gomaxprocs=%d go=%s commit=%s source=%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(h.root), sourceDigest(h.root))
	r.printf("server: bloc-server -min-anchors 3 -fingerprint <survey> (defaults otherwise); deployment seed %d, %d anchors x %d antennas x %d bands; survey %d points\n",
		deploySeed, anchors, antennas, len(h.dep.Bands), len(h.fpdb.Points))
	r.printf("traffic: %d workload rounds (%d measured), %d B per round on the wire, generated in %.2f s\n",
		tr.nWork, len(tr.windowRounds()), tr.bytesPerRound(), setup.Seconds())
	r.printf("host calibration: %.3f ms per 4 MiB SHA-256 (median of 5; independent of the code under test, to compare host speed between runs)\n",
		calibrate())
	hops, interval := airtime()
	r.printf("modeled airtime: %d hops x %.1f ms connection interval = %.1f ms per round (modeled, not measured; outside every layer sum)\n",
		hops, ms(interval), ms(time.Duration(hops)*interval))
}

// calibrate times a fixed computation that shares no code with the
// program, so reports taken on one host can be checked for a host that
// sped up or slowed down between them.
func calibrate() float64 {
	buf := make([]byte, 4<<20)
	var runs []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		sha256.Sum256(buf)
		runs = append(runs, ms(time.Since(t)))
	}
	return quantile(runs, 0.5)
}

// airtime is the paper's acquisition schedule from internal/ble: one
// sounding hop per used data channel at the default connection interval.
func airtime() (hops int, interval time.Duration) {
	ind, err := ble.DefaultConnectInd(ble.DeviceAddress{1}, ble.DeviceAddress{2}, 7, rand.New(rand.NewPCG(1, 1)))
	if err != nil {
		return 0, 0
	}
	return len(ind.LLData.UsedChannels()), time.Duration(ind.LLData.Interval) * 1250 * time.Microsecond
}

func (r *report) endToEnd(run *e2eRun, sc outcome, m map[string]metric) {
	n := len(sc.lat)
	r.printf("end-to-end (real bloc-server, tracing off): %d offered, %d delivered, %d answered within %v (the rest count as failed)\n",
		sc.attempted, sc.delivered, sc.answered, fixLimit)
	r.printf("  setup_s %.4f s (median of %d: %s)\n", m["setup_s"].Value, len(run.setups), floats(run.setups, "%.3f"))
	nSub := len(sc.sub)
	r.printf("  fix_ms_p50 %.3f ms (lower quartile of %d sub-window medians; pooled %.3f ms, n=%d)\n",
		m["fix_ms_p50"].Value, nSub, quantile(sc.lat, 0.5), n)
	r.printf("  fix_ms_p90 %.3f ms (lower quartile of %d sub-window p90s, each with about %d samples beyond; pooled %.3f ms, %d beyond)\n",
		m["fix_ms_p90"].Value, nSub, beyond(n/nSub, 0.9), quantile(sc.lat, 0.9), beyond(n, 0.9))
	r.printf("  fix_ms_p99 %.3f ms (%d samples beyond; diagnostic, not gated)\n", quantile(sc.lat, 0.99), beyond(n, 0.99))
	r.printf("  fix_ok_frac %.4f ratio (answered within the limit and inside the room; %d answered fixes lie outside it)\n",
		m["fix_ok_frac"].Value, sc.outside)
	r.printf("  err_cm_p50 %.2f cm (n=%d)\n", m["err_cm_p50"].Value, len(sc.errCM))
	r.printf("  server_cpu_ms_per_fix %.3f ms (%.2f s CPU over the window)\n", m["server_cpu_ms_per_fix"].Value, run.cpu.Seconds())
	r.printf("  server_rss_mb %.2f MB (VmHWM)\n", m["server_rss_mb"].Value)
	r.printf("  host probe before the set-ups: %.1f%% steal with every CPU loaded, after %.1f s of waiting for at most %.0f%% (budget %v)\n",
		100*run.calmSteal, run.calmWait.Seconds(), 100*calmSteal, calmBudget)
	r.printf("  host steal %.1f%% of CPU time over the window (diagnostic; per sub-window:", 100*run.steal)
	for _, st := range run.subSteal {
		r.printf(" %.1f%%", 100*st)
	}
	r.printf(")\n")
	r.printf("  gen.late_ms_p99 %.3f ms (bound %v; p50 %.3f ms)\n", sc.lateP99, lateBound, sc.lateP50)
}

func (r *report) failures(invalid []string, logTail string) {
	if len(invalid) == 0 {
		r.printf("correctness: every check passed\n")
		return
	}
	r.printf("correctness: %d checks FAILED\n", len(invalid))
	for i, s := range invalid {
		if i == 10 {
			r.printf("  ... and %d more\n", len(invalid)-10)
			break
		}
		r.printf("  %s\n", s)
	}
	r.printf("server log tail:\n%s\n", logTail)
}

func floats(xs []float64, f string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(s, " ")
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git;
// "none" outside a git checkout.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	b, err := os.ReadFile(filepath.Join(root, ".git", ref))
	if err != nil {
		return ref
	}
	return strings.TrimSpace(string(b))
}

// sourceDigest hashes every Go source and module file of the tree, so a
// report identifies the code it measured even outside a git checkout.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			rel = p
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}
