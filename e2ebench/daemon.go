package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one reprosrv process started for a run.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	pid    int
	exited chan error
}

// launch starts reprosrv on a free loopback port (with its default
// cache, worker and queue sizes) and returns once it announces its
// address, which it does after opening and scanning the store.
func launch(bin, storeDir string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-quiet"}
	if storeDir != "" {
		args = append(args, "-store-dir", storeDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, exited: make(chan error, 1)}
	lines := bufio.NewScanner(out)
	announced := make(chan string, 1)
	go func() {
		// The first line carries the address; the rest is drained so
		// the daemon never blocks on a full pipe.
		for lines.Scan() {
			if addr, ok := strings.CutPrefix(lines.Text(), "listening on "); ok {
				select {
				case announced <- addr:
				default:
				}
			}
		}
		d.exited <- cmd.Wait()
	}()
	select {
	case d.addr = <-announced:
		return d, nil
	case err := <-d.exited:
		d.exited <- err
		return nil, fmt.Errorf("reprosrv exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("reprosrv did not announce its address within 60s")
	}
}

// stop asks the daemon to drain and waits for it to exit, killing it
// if it does not within ten seconds.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck
		<-d.exited
	}
}

// cpu returns the daemon's user+system CPU time so far, from
// /proc/<pid>/stat.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	// USER_HZ is 100 on every Linux ABI Go supports.
	return time.Duration(ticks) * 10 * time.Millisecond, nil
}

// peakRSS returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.pid)
}

// promSample is one /metrics scrape: series name (labels included, as
// exposed) to value.
type promSample map[string]float64

// scrape reads the daemon's /metrics on a connection of its own, so the
// measured phase never holds more than its workload's connections.
func scrape(addr string) (promSample, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	resp, err := c.do(request("GET", "/metrics", nil), 10*time.Second)
	if err != nil {
		return nil, err
	}
	if resp.status != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.status)
	}
	out := promSample{}
	for _, line := range strings.Split(string(resp.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// delta is after minus before for one series.
func delta(before, after promSample, name string) float64 { return after[name] - before[name] }
