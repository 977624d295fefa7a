package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark compiles; the .gitignore
// beside it names it, so a run leaves nothing for git to see.
const buildDir = "benchmark/.build"

const (
	healthDeadline = 60 * time.Second
	stopGrace      = 5 * time.Second
)

// enterRepoRoot makes the module root the working directory, so the
// command works from anywhere inside the repo and every path below
// (BENCHMARK.json, buildDir, expectedDir, ./cmd/vgend) is relative to it.
func enterRepoRoot() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return os.Chdir(dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return errors.New("no go.mod in this directory or above it: run inside the repo")
		}
		dir = parent
	}
}

// goBuild compiles pkg (relative to the repo root, the working
// directory) into buildDir and returns the binary's path and the time
// the build took.
func goBuild(ctx context.Context, pkg, name string) (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, name))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build %s: %w\n%s", pkg, err, out)
	}
	return bin, time.Since(start), nil
}

// tailBuffer keeps the last bytes a child wrote to stderr, to surface
// on failure without growing with a chatty child.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - 8<<10; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// daemon is one running vgend child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr *tailBuffer
	exited chan struct{} // closed once cmd.Wait has returned
	// SetupS is exec → first 200 from /healthz: corpus build, tokenizer
	// and model training, listener up.
	SetupS float64
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before vgend binds it, which leaves a small race the health
// poll turns into a clean start-up error.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon executes vgend and waits until /healthz answers 200. On
// any failure the child is gone before it returns.
func startDaemon(bin string, replicas int, traced bool) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick a port: %w", err)
	}
	args := []string{"-addr", addr, "-log", "off", "-trace=" + strconv.FormatBool(traced)}
	if replicas > 1 {
		args = append(args, "-replicas", strconv.Itoa(replicas))
	}
	d := &daemon{cmd: exec.Command(bin, args...), addr: addr, stderr: &tailBuffer{}, exited: make(chan struct{})}
	d.cmd.Stderr = d.stderr
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("exec vgend: %w", err)
	}
	trackDaemon(d, true)
	go func() {
		_ = d.cmd.Wait() // the exit status is reported through stderr and the failed poll
		trackDaemon(d, false)
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.SetupS = time.Since(start).Seconds()
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("vgend exited during start-up: %s", d.stderr)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Since(start) > healthDeadline {
			d.stop()
			return nil, fmt.Errorf("vgend not healthy after %s: %s", healthDeadline, d.stderr)
		}
	}
}

// stop ends the child: SIGTERM, a grace period for its drain, then
// SIGKILL. It returns once the process has been reaped, and is safe to
// call more than once.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited: Wait reports it
	select {
	case <-d.exited:
		return
	case <-time.After(stopGrace):
	}
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// peakRSSMB reads the child's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// scrape fetches the daemon's /metrics JSON body.
func (d *daemon) scrape() ([]byte, error) {
	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	resp, err := client.Get("http://" + d.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}
