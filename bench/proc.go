package main

// The daemon as a child process: build the real cmd/gill-daemon, spawn it
// with production-default flags, poll it ready, scrape its admin plane and
// /proc entry, and kill it. Nothing here links daemon code.

import (
	"bufio"
	"bytes"
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

	"repro/internal/filter"
)

// outDir holds everything a run leaves behind (daemon binary, state dirs,
// trace files); it is inside the checkout and ignored by git.
const outDir = "bench/out"

// buildDaemon compiles cmd/gill-daemon from the checkout's source. The
// go build cache makes every call after the first a sub-second no-op.
func buildDaemon() (string, error) {
	if _, err := os.Stat("cmd/gill-daemon/main.go"); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "gill-daemon"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/gill-daemon").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/gill-daemon: %w\n%s", err, out)
	}
	return bin, nil
}

// cleanups are run on SIGINT as well as on normal return, so a daemon and
// its state dir never outlive the harness.
var cleanups struct {
	sync.Mutex
	next int
	fns  map[int]func()
}

func addCleanup(fn func()) (remove func()) {
	cleanups.Lock()
	defer cleanups.Unlock()
	if cleanups.fns == nil {
		cleanups.fns = make(map[int]func())
	}
	id := cleanups.next
	cleanups.next++
	cleanups.fns[id] = fn
	return func() {
		cleanups.Lock()
		delete(cleanups.fns, id)
		cleanups.Unlock()
	}
}

func runCleanups() {
	cleanups.Lock()
	defer cleanups.Unlock()
	for id, fn := range cleanups.fns {
		fn()
		delete(cleanups.fns, id)
	}
}

type daemonProc struct {
	cmd       *exec.Cmd
	dir       string // state dir, removed by stop
	bgpAddr   string
	adminAddr string
	stderr    bytes.Buffer
	exited    chan struct{} // closed once the child has been reaped
	forget    func()
	http      *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon spawns the daemon on a fresh state dir and ephemeral ports
// and returns once /readyz answers 200. A non-nil filters is written to a
// file and passed with -filters.
func startDaemon(bin string, filters *filter.Set) (*daemonProc, error) {
	dir, err := os.MkdirTemp(outDir, "state-")
	if err != nil {
		return nil, err
	}
	d := &daemonProc{dir: dir, http: &http.Client{}, exited: make(chan struct{})}
	if d.bgpAddr, err = freePort(); err == nil {
		d.adminAddr, err = freePort()
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	args := []string{"-listen", d.bgpAddr, "-admin", d.adminAddr, "-wal", filepath.Join(dir, "wal"), "-log-level", "warn"}
	if filters != nil {
		path := filepath.Join(dir, "filters.txt")
		f, err := os.Create(path)
		if err == nil {
			err = filters.Marshal(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		args = append(args, "-filters", path)
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stderr = &d.stderr
	// A harness killed outright (SIGKILL) still takes the daemon with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	d.forget = addCleanup(d.kill)
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := d.get("/readyz"); err == nil {
			return d, nil
		}
		select {
		case <-d.exited:
			d.stop()
			return nil, fmt.Errorf("daemon exited during start-up:\n%s", d.stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not ready after 10s:\n%s", d.stderr.String())
		}
		time.Sleep(time.Millisecond) // poll interval, not a settling delay
	}
}

// kill ends the daemon, waits until it is gone, and removes its state dir.
func (d *daemonProc) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	os.RemoveAll(d.dir)
}

func (d *daemonProc) stop() {
	d.kill()
	d.forget()
}

// get fetches an admin-plane path; any status other than 200 is an error.
func (d *daemonProc) get(path string) ([]byte, error) {
	return httpGet(d.http, "http://"+d.adminAddr+path)
}

func httpGet(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// scrape reads /metrics into name → value, skipping histogram buckets and
// labelled series (only the flat counters, gauges, _sum and _count lines
// are used).
func (d *daemonProc) scrape() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseMetrics(body), nil
}

func parseMetrics(body []byte) map[string]float64 {
	m := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m
}

// procUsage is what /proc says about a process so far.
type procUsage struct {
	userS, sysS float64
	rssPeakMB   float64
	ctxSwitches float64
}

// cpuTimes reads a process's user and system CPU seconds from
// /proc/<pid>/stat.
func cpuTimes(pid int) (userS, sysS float64, err error) {
	path := "/proc/" + strconv.Itoa(pid) + "/stat"
	stat, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (USER_HZ = 100).
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short %s", path)
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return ut / 100, st / 100, nil
}

// cpuTime is user plus system.
func cpuTime(pid int) (float64, error) {
	userS, sysS, err := cpuTimes(pid)
	return userS + sysS, err
}

// usage adds peak RSS from /proc/<pid>/status and the context switches of
// all the process's threads.
func usage(pid int) (procUsage, error) {
	var u procUsage
	var err error
	if u.userS, u.sysS, err = cpuTimes(pid); err != nil {
		return u, err
	}
	root := "/proc/" + strconv.Itoa(pid)
	status, err := os.ReadFile(root + "/status")
	if err != nil {
		return u, err
	}
	u.rssPeakMB = statusField(status, "VmHWM:") / 1024
	tasks, _ := filepath.Glob(root + "/task/*/status")
	for _, t := range tasks {
		if b, err := os.ReadFile(t); err == nil {
			u.ctxSwitches += statusField(b, "voluntary_ctxt_switches:") + statusField(b, "nonvoluntary_ctxt_switches:")
		}
	}
	return u, nil
}

// statusField returns the number following key at a line start of a
// /proc status file.
func statusField(status []byte, key string) float64 {
	for _, ln := range bytes.Split(status, []byte("\n")) {
		if bytes.HasPrefix(ln, []byte(key)) {
			f := bytes.Fields(ln[len(key):])
			if len(f) > 0 {
				v, _ := strconv.ParseFloat(string(f[0]), 64)
				return v
			}
		}
	}
	return 0
}
