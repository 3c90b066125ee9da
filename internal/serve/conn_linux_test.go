package serve

import (
	"bufio"
	"net"
	"os"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
)

// TestAcceptSurvivesEMFILE lowers the process's descriptor limit until the
// server's next accept fails with EMFILE, then restores it: the server must
// go on serving, and greet a new connection. It counts /proc/self/fd, so it
// is linux-only, and it must not run beside another test.
func TestAcceptSurvivesEMFILE(t *testing.T) {
	cfg, _ := testParams(core.REF())
	s, err := Open(cfg)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer s.Shutdown()
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Fatal(err)
	}
	restore := func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			t.Fatalf("restoring RLIMIT_NOFILE: %v", err)
		}
	}
	// Room for the dialled socket and none for the server's side of it.
	low := lim
	low.Cur = uint64(lowestFreeFD(t)) + 1
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		restore()
		t.Fatalf("dial under the lowered limit: %v", err)
	}
	defer c.Close()
	time.Sleep(200 * time.Millisecond) // the server's accept fails meanwhile
	restore()

	g, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	g.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := g.Write([]byte("{\"cmd\":\"subscribe\"}\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(g).ReadString('\n')
	if err != nil {
		t.Fatalf("no greeting after a transient accept failure: %v", err)
	}
	if line != "{\"ok\":true,\"resume_seq\":0}\n" {
		t.Fatalf("greeting %q", line)
	}
}

// lowestFreeFD is the descriptor the process's next open gets: the lowest
// number /proc/self/fd does not list, the directory's own descriptor aside.
func lowestFreeFD(t *testing.T) int {
	t.Helper()
	d, err := os.Open("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	names, err := d.Readdirnames(-1)
	self := int(d.Fd())
	d.Close()
	if err != nil {
		t.Fatal(err)
	}
	open := map[int]bool{}
	for _, n := range names {
		if fd, err := strconv.Atoi(n); err == nil && fd != self {
			open[fd] = true
		}
	}
	fd := 0
	for open[fd] {
		fd++
	}
	return fd
}
