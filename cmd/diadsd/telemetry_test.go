package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"diads/internal/telemetry"
)

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

// missingSamples returns the metric-name prefixes with no sample line in
// the exposition (comment lines do not count).
func missingSamples(expo []byte, prefixes []string) []string {
	var missing []string
	for _, p := range prefixes {
		found := false
		for _, line := range strings.Split(string(expo), "\n") {
			if strings.HasPrefix(line, p) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, p)
		}
	}
	return missing
}

// TestTelemetryScrape boots a real daemon with its telemetry listener,
// scrapes /metrics until every layer's families have samples, checks the
// exposition's format, and stops the lingering daemon with SIGTERM.
func TestTelemetryScrape(t *testing.T) {
	bin := buildDaemon(t)
	addr := freeAddr(t)
	daemon := exec.Command(bin, "-seed", "7", "-runs", "10", "-quiet", "-telemetry", addr, "-linger")
	stderr, err := daemon.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := daemon.Start(); err != nil {
		t.Fatal(err)
	}
	var logs strings.Builder
	lingering, logsDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(logsDone)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			logs.WriteString(sc.Text() + "\n")
			if strings.Contains(sc.Text(), "lingering for scrapes") {
				close(lingering)
			}
		}
	}()
	// daemonLog kills the daemon if it still runs and returns its log.
	daemonLog := func() string {
		_ = daemon.Process.Kill()
		<-logsDone
		return logs.String()
	}
	t.Cleanup(func() {
		daemonLog()
		_ = daemon.Wait()
	})

	// Families register when first observed, so poll until all are in.
	want := []string{"diads_monitor_", "diads_service_", "diads_module_", "diads_self_", "diads_cache_"}
	client := &http.Client{Timeout: 5 * time.Second}
	var expo []byte
	missing := want
	for deadline := time.Now().Add(60 * time.Second); len(missing) > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("no samples for %v before the deadline\n%s", missing, daemonLog())
		}
		time.Sleep(100 * time.Millisecond)
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			continue // not listening yet
		}
		expo, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics: %d %v", resp.StatusCode, err)
		}
		missing = missingSamples(expo, want)
	}
	if err := telemetry.ValidateExposition(expo); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}

	// SIGTERM before the run ends would kill rather than stop the daemon.
	select {
	case <-lingering:
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon never finished its run\n%s", daemonLog())
	}
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-logsDone:
	case <-time.After(10 * time.Second):
		t.Fatalf("daemon did not exit within 10s of SIGTERM\n%s", daemonLog())
	}
	if err := daemon.Wait(); err != nil {
		t.Fatalf("daemon exit after SIGTERM: %v\n%s", err, logs.String())
	}
}
