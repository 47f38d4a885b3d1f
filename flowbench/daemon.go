package main

import (
	"bufio"
	"encoding/json"
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
	"syscall"
	"time"
)

// daemonFiles are the set-up files a flowdns child boots from.
type daemonFiles struct {
	bgp, dbl   string
	checkpoint string // pristine warm checkpoint, copied before every boot
	storeDir   string
}

// daemon is one running flowdns child process.
type daemon struct {
	cmd      *exec.Cmd
	stdout   io.ReadCloser // TSV rows, when requested
	exited   chan struct{} // closed when the process has been waited for
	waitErr  error
	logPath  string
	base     string // http://host:port of the query plane
	dnsAddr  string
	flowAddr string
	ready    time.Duration // exec to first /query/health answer
}

// freeAddr reserves a loopback port of the given network and releases it
// for the child to bind.
func freeAddr(network string) (string, error) {
	if network == "udp" {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		defer pc.Close()
		return pc.LocalAddr().String(), nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon boots flowdns as deployed: TSV to stdout, rollups with BGP
// and DBL attribution sealed every second into the window store, the
// query plane, and warm restart from a checkpoint. It returns once the
// query plane answers, which happens after the checkpoint restore and the
// store load. With rows, the caller must drain d.stdout.
func startDaemon(bin, dir string, f daemonFiles, tag string, rows bool) (*daemon, error) {
	d := &daemon{exited: make(chan struct{}), logPath: filepath.Join(dir, "flowdns-"+tag+".log")}
	var err error
	if d.dnsAddr, err = freeAddr("tcp"); err != nil {
		return nil, err
	}
	if d.flowAddr, err = freeAddr("udp"); err != nil {
		return nil, err
	}
	qaddr, err := freeAddr("tcp")
	if err != nil {
		return nil, err
	}
	d.base = "http://" + qaddr
	snap := filepath.Join(dir, "snapshot-"+tag+".ckpt")
	if err := copyFile(f.checkpoint, snap); err != nil {
		return nil, err
	}
	logf, err := os.Create(d.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	d.cmd = exec.Command(bin,
		"-dns-listen", d.dnsAddr, "-netflow-listen", d.flowAddr,
		"-out", "-", "-sink", "tsv",
		"-rollup", "-window", "1s", "-rollup-out=", "-bgp-table", f.bgp, "-dbl", f.dbl,
		"-query-addr", qaddr, "-store-dir", f.storeDir,
		"-snapshot", snap, "-stats-interval", "1h")
	d.cmd.Stderr = logf
	// The child must not outlive a benchmark that is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	// An os.Pipe rather than StdoutPipe: Wait must not close the read end
	// before the reader has taken the rows of the final drain.
	var pw *os.File
	if rows {
		var pr *os.File
		if pr, pw, err = os.Pipe(); err != nil {
			return nil, err
		}
		d.stdout = pr
		d.cmd.Stdout = pw
	}
	t0 := time.Now()
	err = d.cmd.Start()
	if pw != nil {
		pw.Close()
	}
	if err != nil {
		if d.stdout != nil {
			d.stdout.Close()
		}
		return nil, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	c := &http.Client{Timeout: time.Second}
	for {
		resp, err := c.Get(d.base + "/query/health")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(t0)
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("flowdns exited during start-up (%v): %s", d.waitErr, d.logTail())
		case <-time.After(time.Millisecond):
		}
		if time.Since(t0) > 60*time.Second {
			d.kill()
			return nil, fmt.Errorf("flowdns not ready after 60s: %s", d.logTail())
		}
	}
}

// stop sends SIGTERM, waits for the graceful drain, and reports an
// unclean exit. A child that does not exit within 30 s is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("flowdns did not exit 30s after SIGTERM: %s", d.logTail())
	}
	if d.waitErr != nil {
		return fmt.Errorf("flowdns: %v: %s", d.waitErr, d.logTail())
	}
	return nil
}

// kill ends the child unconditionally and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.logPath)
	if len(data) > 600 {
		data = data[len(data)-600:]
	}
	return strings.TrimSpace(string(data))
}

// cpu returns the child's CPU time: the nanosecond run-time counters of
// its threads in /proc/<pid>/task/*/schedstat, finer than the 10 ms ticks
// of /proc/<pid>/stat. The Go runtime does not retire threads, so no time
// leaves the sum.
func (d *daemon) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", d.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, t := range tasks {
		data, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited since the listing
		}
		f := strings.Fields(string(data))
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// peakRSSMB returns the child's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	return statusKB(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid), "VmHWM:")
}

func statusKB(path, key string) (float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(l, key) {
			f := strings.Fields(l[len(key):])
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, key)
}

// scrapeMetrics reads the daemon's /metrics into "name{labels}" → value.
func scrapeMetrics(base string) (map[string]float64, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		l := sc.Text()
		if l == "" || l[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			continue
		}
		out[l[:i]] = v
	}
	return out, sc.Err()
}

// storeNewest reads the end of the newest stored window from /query/health.
func storeNewest(base string) (int64, error) {
	resp, err := http.Get(base + "/query/health")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var h struct {
		Newest int64 `json:"newest"`
	}
	err = json.NewDecoder(resp.Body).Decode(&h)
	return h.Newest, err
}

// rcvbufErrors reads the UDP receive-buffer overflow counter of this
// network namespace (shared by every process in it) from /proc/net/snmp.
func rcvbufErrors() (uint64, error) {
	data, err := os.ReadFile("/proc/net/snmp")
	if err != nil {
		return 0, err
	}
	var head []string
	for _, l := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(l, "Udp: ") {
			continue
		}
		f := strings.Fields(l)
		if head == nil {
			head = f
			continue
		}
		for i, name := range head {
			if name == "RcvbufErrors" && i < len(f) {
				return strconv.ParseUint(f[i], 10, 64)
			}
		}
	}
	return 0, errors.New("/proc/net/snmp: no Udp RcvbufErrors")
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// drainQuiet waits until count has not changed for quiet, or until limit.
func drainQuiet(count func() int64, quiet, limit time.Duration) {
	deadline := time.Now().Add(limit)
	last, since := count(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		if n := count(); n != last {
			last, since = n, time.Now()
		} else if time.Since(since) >= quiet {
			return
		}
	}
}
