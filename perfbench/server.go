package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// buildServer compiles cmd/bloc-server from the tree under test.
func buildServer(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "bloc-server")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/bloc-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build bloc-server: %w\n%s", err, out)
	}
	return bin, nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// serverProc is one running bloc-server.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	logPath string
	once    sync.Once
}

// startServer execs bloc-server with its defaults plus the benchmark's
// two flags. Its stderr goes to logPath (diagnostics only, never parsed
// for metrics). The server dies with the harness.
func startServer(bin, fpdb, logPath string) (*serverProc, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, "-listen", addr, "-min-anchors", "3", "-fingerprint", fpdb)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bloc-server: %w", err)
	}
	return &serverProc{cmd: cmd, addr: addr, logPath: logPath}, nil
}

// stop kills the server and waits for it to exit; safe to call twice.
func (p *serverProc) stop() {
	p.once.Do(func() {
		_ = p.cmd.Process.Kill() // already exited is fine
		_ = p.cmd.Wait()         // a killed child always reports an error
	})
}

// cpu is the server's user+system CPU time so far, from /proc/<pid>/stat.
func (p *serverProc) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// hostTicks reads the machine-wide CPU time counters of /proc/stat:
// steal (time the hypervisor gave this machine's CPUs to others) and the
// total of every state. Their window delta shows how contended the host
// was while a run measured.
func hostTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("malformed /proc/stat")
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSSMB is the server's VmHWM (peak resident set) in MB.
func (p *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stderrTail returns the last n lines the server logged.
func (p *serverProc) stderrTail(n int) string {
	b, err := os.ReadFile(p.logPath)
	if err != nil {
		return fmt.Sprintf("(server log unreadable: %v)", err)
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}
