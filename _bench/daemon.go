package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonProcs is the daemon's GOMAXPROCS. One proc makes the
// internal/parallel pool serial; answers are bit-identical at any worker
// count.
const daemonProcs = 1

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux architecture Go supports).
const clockTicks = 100

// daemon is one spawned qmkpd and the client that talks to it over a
// single keep-alive loopback connection.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	client *http.Client
	exited chan struct{} // closed once cmd.Wait has returned
}

// startDaemon spawns bin on a free loopback port and polls /healthz
// every millisecond until it answers.
func startDaemon(bin string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := spawnOnce(bin)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func spawnOnce(bin string) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("probing a free port: %w", err)
	}
	addr := ln.Addr().String()
	// The port is free again once closed; the daemon binds it next (a
	// lost race shows up as an early exit, and startDaemon retries).
	if err := ln.Close(); err != nil {
		return nil, fmt.Errorf("probing a free port: %w", err)
	}
	cmd := exec.Command(bin, "-addr", addr, "-drain", "1s")
	cmd.Env = append(filterEnv(os.Environ(), "GOMAXPROCS=", "REPRO_WORKERS="),
		"GOMAXPROCS="+strconv.Itoa(daemonProcs))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{
		cmd: cmd,
		url: "http://" + addr,
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		},
		exited: make(chan struct{}),
	}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	if err := d.waitHealthy(10 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// allowedCPUs returns the CPUs this process may run on, as a taskset
// list such as "0-1".
func allowedCPUs() (string, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", errors.New("no Cpus_allowed_list in /proc/self/status")
}

// pin moves every thread of this process onto cpus, a taskset list. A
// daemon spawned meanwhile inherits the set and keeps it.
//
// The client and the daemon take turns in a closed loop, so sharing one
// CPU costs them little; on a two-vCPU host, keeping the second vCPU idle
// cut the hypervisor steal on the measured CPU from up to a third of its
// time to a few percent, and with it most of the run-to-run spread.
func pin(cpus string) error {
	out, err := exec.Command("taskset", "-a", "-p", "-c", cpus, strconv.Itoa(os.Getpid())).CombinedOutput()
	if err != nil {
		return fmt.Errorf("pinning to CPUs %s: %v: %s", cpus, err, out)
	}
	return nil
}

func filterEnv(env []string, prefixes ...string) []string {
	out := env[:0:0]
	for _, kv := range env {
		drop := false
		for _, p := range prefixes {
			drop = drop || strings.HasPrefix(kv, p)
		}
		if !drop {
			out = append(out, kv)
		}
	}
	return out
}

// waitHealthy polls /healthz at millisecond granularity, so set-up time
// is not quantized by the poll interval.
func (d *daemon) waitHealthy(budget time.Duration) error {
	probe := &http.Client{Timeout: 100 * time.Millisecond}
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return errors.New("qmkpd exited before it became healthy")
		default:
		}
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("qmkpd not healthy within %v", budget)
}

// pause stops every thread of the daemon, so that its idle-time work
// (the garbage collector, the scavenger) leaves the shared CPU to the
// reference loop, and gives a thread that was runnable a moment to reach
// the stop. resume lets it go on.
func (d *daemon) pause() error {
	if err := d.cmd.Process.Signal(syscall.SIGSTOP); err != nil {
		return fmt.Errorf("pausing qmkpd: %w", err)
	}
	time.Sleep(time.Millisecond)
	return nil
}

func (d *daemon) resume() error {
	if err := d.cmd.Process.Signal(syscall.SIGCONT); err != nil {
		return fmt.Errorf("resuming qmkpd: %w", err)
	}
	return nil
}

// stop interrupts the daemon (graceful drain) and waits for it to exit,
// killing it if the drain overruns.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGCONT) // in case it is paused
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// post sends one pre-encoded solve request and reads the whole reply.
func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.url+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// vars reads the daemon's counters from /debug/vars.
func (d *daemon) vars() (map[string]int64, error) {
	resp, err := d.client.Get(d.url + "/debug/vars")
	if err != nil {
		return nil, fmt.Errorf("reading /debug/vars: %w", err)
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding /debug/vars: %w", err)
	}
	return doc.Counters, nil
}

// cpuTime returns the daemon's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parsing /proc stat: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's VmHWM in bytes.
func (d *daemon) peakRSS() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuTicks is one "cpu" line of /proc/stat, in ticks.
type cpuTicks struct{ total, steal int64 }

// readCPUStat returns the /proc/stat lines of the whole host ("cpu") and
// of every CPU ("cpu0", ...).
func readCPUStat() (map[string]cpuTicks, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil, err
	}
	out := map[string]cpuTicks{}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		var c cpuTicks
		// user nice system idle iowait irq softirq steal; guest time is
		// already counted in user.
		for i := 1; i <= 8; i++ {
			v, err := strconv.ParseInt(f[i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("parsing /proc/stat: %w", err)
			}
			c.total += v
			if i == 8 {
				c.steal = v
			}
		}
		out[f[0]] = c
	}
	return out, nil
}

// stealShare is the share of ticks stolen by the hypervisor on one line
// of /proc/stat between two readings.
func stealShare(before, after map[string]cpuTicks, cpu string) float64 {
	b, a := before[cpu], after[cpu]
	if a.total <= b.total {
		return 0
	}
	return float64(a.steal-b.steal) / float64(a.total-b.total)
}
