package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain runs the test binary as dvsd itself when asAppEnv is set, on a
// command line without the testing flags, so the tests below drive main's
// flag parsing, validation and signal handling in a child process.
func TestMain(m *testing.M) {
	if os.Getenv(asAppEnv) == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const asAppEnv = "DVSD_TEST_AS_APP"

// command builds a dvsd child process; argv[0] is "dvsd", so the usage
// header reads as it does for the installed binary.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Args[0] = "dvsd"
	cmd.Env = append(os.Environ(), asAppEnv+"=1")
	return cmd
}

// run runs dvsd to completion and returns its stderr and exit code.
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := command(args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return stderr.String(), cmd.ProcessState.ExitCode()
}

func usage(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "help.golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestHelpGolden pins "dvsd -h": every flag, default and help text, byte
// for byte as the binary printed them before the daemons shared a shell.
func TestHelpGolden(t *testing.T) {
	stderr, code := run(t, "-h")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if want := usage(t); stderr != want {
		t.Errorf("-h differs from testdata/help.golden:\n--- got\n%s--- want\n%s", stderr, want)
	}
}

// TestRejectedFlags checks that each out-of-range value exits 2 with its
// message, a blank line, and the usage.
func TestRejectedFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-workers", "-1"}, "invalid -workers -1: want >= 0 (0 = all cores)"},
		{[]string{"-queue", "0"}, "invalid -queue 0: want > 0"},
		{[]string{"-trace-buffer", "-1"}, "invalid -trace-buffer -1: want >= 0 (0 = tracing off)"},
		{[]string{"-cache-entries", "-1"}, "invalid -cache-entries -1: want >= 0 (0 = default 4096)"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			stderr, code := run(t, c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if want := "dvsd: " + c.msg + "\n\n" + usage(t); stderr != want {
				t.Errorf("stderr:\n%s--- want\n%s", stderr, want)
			}
		})
	}
}

// freeAddr returns a loopback address nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// daemon is a running dvsd child whose stdout is read line by line.
type daemon struct {
	cmd   *exec.Cmd
	lines chan string
}

func start(t *testing.T, args ...string) *daemon {
	t.Helper()
	cmd := command(args...)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	d := &daemon{cmd: cmd, lines: make(chan string, 64)}
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			d.lines <- sc.Text()
		}
		close(d.lines)
	}()
	return d
}

// expect reads the next stdout line and checks it.
func (d *daemon) expect(t *testing.T, want string) {
	t.Helper()
	select {
	case got := <-d.lines:
		if got != want {
			t.Fatalf("stdout line %q, want %q", got, want)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("no stdout line, want %q", want)
	}
}

func waitHealthy(t *testing.T, addr string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			return
		}
	}
	t.Fatalf("%s never answered /healthz", addr)
}

const simBody = `{"workload":{"code":"FT","class":"S","ranks":2},"strategy":{"kind":"external","freq_mhz":600}}`

// TestServeDrainRestart drives the whole lifecycle: serve, SIGTERM,
// drain, snapshot the cache, exit 0; then a restart reloads the snapshot.
// Every lifecycle line is pinned.
func TestServeDrainRestart(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "cache.ndjson")
	addr, debug := freeAddr(t), freeAddr(t)

	d := start(t, "-addr", addr, "-workers", "1", "-cache-dir", dir, "-debug-addr", debug)
	d.expect(t, "dvsd: debug surface on "+debug+" (/debug/pprof, /debug/traces)")
	d.expect(t, "dvsd: serving on "+addr+" (1 workers, queue 8)")
	waitHealthy(t, addr)
	resp, err := http.Post("http://"+addr+"/simulate", "application/json", strings.NewReader(simBody))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/simulate status %d", resp.StatusCode)
	}
	resp, err = http.Get("http://" + debug + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	d.cmd.Process.Signal(syscall.SIGTERM)
	d.expect(t, "dvsd: draining in-flight requests...")
	d.expect(t, "dvsd: snapshotted 1 cached cells to "+snap)
	d.expect(t, "dvsd: drained; 1 simulations run, 0 cache hits, 0 panics contained")
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("drained dvsd: %v, want exit 0", err)
	}

	d = start(t, "-addr", addr, "-workers", "1", "-cache-dir", dir)
	d.expect(t, "dvsd: loaded 1 cached cells from "+snap)
	d.expect(t, "dvsd: serving on "+addr+" (1 workers, queue 8)")
	waitHealthy(t, addr)
	d.cmd.Process.Signal(syscall.SIGTERM)
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("restarted dvsd: %v, want exit 0", err)
	}
}

// TestSecondSignalKills checks that the first signal restores the default
// signal handling: a second SIGTERM during a drain kills the process
// instead of waiting out the in-flight sweep.
func TestSecondSignalKills(t *testing.T) {
	addr := freeAddr(t)
	d := start(t, "-addr", addr, "-workers", "1")
	d.expect(t, "dvsd: serving on "+addr+" (1 workers, queue 8)")
	waitHealthy(t, addr)
	body := `{"workloads":[{"code":"LU","class":"W","ranks":8},{"code":"CG","class":"W","ranks":8}],
	          "strategies":[{"kind":"nodvs"},{"kind":"external","freq_mhz":600},{"kind":"external","freq_mhz":800},
	                        {"kind":"external","freq_mhz":1000},{"kind":"daemon"}]}`
	resp, err := http.Post("http://"+addr+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadBytes('\n'); err != nil {
		t.Fatalf("first record: %v", err)
	}

	d.cmd.Process.Signal(syscall.SIGTERM)
	d.expect(t, "dvsd: draining in-flight requests...")
	d.cmd.Process.Signal(syscall.SIGTERM)
	err = d.cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) {
		t.Fatalf("dvsd after a second signal: %v, want killed", err)
	}
	if ws, ok := exit.Sys().(syscall.WaitStatus); !ok || !ws.Signaled() || ws.Signal() != syscall.SIGTERM {
		t.Fatalf("dvsd after a second signal: %v, want killed by SIGTERM", err)
	}
}
