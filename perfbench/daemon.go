package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one sharingd child process serving closed-form surfaces on a
// loopback port. The benchmark talks to it over at most two keep-alive
// connections.
type daemon struct {
	cmd    *exec.Cmd
	pid    string
	base   string
	client *http.Client
	tr     *http.Transport
}

// startDaemon execs sharingd -synthetic on a free loopback port and
// returns once it answers /healthz.
func startDaemon(path string) (*daemon, error) {
	if path == "" {
		return nil, errors.New("no sharingd binary (-sharingd)")
	}
	lw := &listenWriter{addr: make(chan string, 1)}
	cmd := exec.Command(path, "-synthetic", "-addr", "127.0.0.1:0", "-q")
	cmd.Stdout = os.Stderr
	cmd.Stderr = lw
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sharingd: %w", err)
	}
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	d := &daemon{
		cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), tr: tr,
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
	}
	select {
	case addr := <-lw.addr:
		d.base = "http://" + addr
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("sharingd did not report its listen address")
	}
	for i := 0; ; i++ {
		if status, _, err := d.do("GET", "/healthz", nil); err == nil && status == http.StatusOK {
			return d, nil
		}
		if i == 2000 {
			d.stop()
			return nil, errors.New("sharingd never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop interrupts the daemon (its graceful drain) and waits for it to
// exit, killing it if the drain takes too long.
func (d *daemon) stop() error {
	d.tr.CloseIdleConnections()
	d.cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("sharingd did not drain within 15s; killed")
	}
}

// do sends one request and reads the whole response.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// post sends a JSON body and returns the response body, or an error for
// any status other than 200.
func (d *daemon) post(path string, body []byte) ([]byte, error) {
	status, out, err := d.do("POST", path, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(out))
	}
	return out, nil
}

// getJSON decodes a GET response into v.
func (d *daemon) getJSON(path string, v any) error {
	status, out, err := d.do("GET", path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(out, v)
}

// rss is the daemon's peak resident set size in MB.
func (d *daemon) rss() (float64, error) { return vmHWM(d.pid) }

// listenWriter forwards the daemon's standard error and picks the listen
// address out of its "listening on" banner.
type listenWriter struct {
	mu   sync.Mutex
	buf  []byte
	sent bool
	addr chan string
}

func (w *listenWriter) Write(p []byte) (int, error) {
	os.Stderr.Write(p)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	const banner = "listening on "
	if i := bytes.Index(w.buf, []byte(banner)); i >= 0 {
		rest := w.buf[i+len(banner):]
		if j := bytes.IndexByte(rest, '\n'); j >= 0 {
			w.addr <- strings.TrimSpace(string(rest[:j]))
			w.sent, w.buf = true, nil
		}
	}
	return len(p), nil
}
