package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
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

// TestMain runs the test binary as dvsgw itself when asAppEnv is set, on a
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

const asAppEnv = "DVSGW_TEST_AS_APP"

// command builds a dvsgw child process; argv[0] is "dvsd", so the usage
// header reads as it does for the installed binary.
func command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Args[0] = "dvsgw"
	cmd.Env = append(os.Environ(), asAppEnv+"=1")
	return cmd
}

// run runs dvsgw to completion and returns its stderr and exit code.
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

// TestHelpGolden pins "dvsgw -h": every flag, default and help text, byte
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
	const peer = "http://127.0.0.1:1"
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{nil, "-peers is required: at least one dvsd backend URL"},
		{[]string{"-peers", " , "}, "-peers is required: at least one dvsd backend URL"},
		{[]string{"-peers", peer, "-workers", "-1"}, "invalid -workers -1: want >= 0 (0 = all cores)"},
		{[]string{"-peers", peer, "-queue", "0"}, "invalid -queue 0: want > 0"},
		{[]string{"-peers", peer, "-trace-buffer", "-1"}, "invalid -trace-buffer -1: want >= 0 (0 = tracing off)"},
		{[]string{"-peers", peer, "-fanout", "0"}, "invalid -fanout 0: want > 0"},
		{[]string{"-peers", peer, "-retries", "0"}, "invalid -retries 0: want > 0"},
		{[]string{"-peers", peer, "-fail-after", "0"}, "invalid -fail-after 0: want > 0"},
		{[]string{"-peers", peer, "-backoff", "0"}, "invalid -backoff 0s: want > 0"},
		{[]string{"-peers", peer, "-probe-interval", "0"}, "invalid -probe-interval 0s: want > 0"},
		{[]string{"-peers", peer, "-probe-timeout", "0"}, "invalid -probe-timeout 0s: want > 0"},
		{[]string{"-peers", peer, "-shed-budget", "0"}, "invalid -shed-budget 0s: want > 0"},
		{[]string{"-peers", peer, "-hedge-after", "-1s"}, "invalid -hedge-after -1s: want >= 0 (0 = no hedging)"},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			stderr, code := run(t, c.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2", code)
			}
			if want := "dvsgw: " + c.msg + "\n\n" + usage(t); stderr != want {
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

// daemon is a running dvsgw child whose stdout is read line by line.
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

// TestServeDrain drives the gateway's lifecycle: serve, SIGTERM, drain,
// exit 0, with every lifecycle line pinned. The one backend is dead; the
// gateway still starts and serves.
func TestServeDrain(t *testing.T) {
	addr, debug, peer := freeAddr(t), freeAddr(t), freeAddr(t)
	d := start(t, "-addr", addr, "-peers", "http://"+peer+"/", "-debug-addr", debug)
	d.expect(t, "dvsgw: debug surface on "+debug+" (/debug/pprof, /debug/traces)")
	d.expect(t, "dvsgw: serving on "+addr+" over 1 backends (fanout 16, queue 8)")
	waitHealthy(t, addr)
	resp, err := http.Get("http://" + debug + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	d.cmd.Process.Signal(syscall.SIGTERM)
	d.expect(t, "dvsgw: draining in-flight requests...")
	d.expect(t, "dvsgw: drained")
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("drained dvsgw: %v, want exit 0", err)
	}
}
