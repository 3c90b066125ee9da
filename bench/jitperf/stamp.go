package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// printStamp records where the numbers below it were taken: a figure without
// its machine is not comparable with anything.
func printStamp(root, out string) {
	fmt.Printf("jitperf commit=%s %s cpu=%q nproc=%d GOMAXPROCS=%d out_fs=%s\n",
		commit(root), runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), fsType(out))
}

// commit names the working tree's commit, or "unknown" outside a git
// checkout (the benchmark driver runs from an exported tree).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	b, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir — where the durable workload's
// checkpoints are fsynced. tmpfs makes fsync free and the workload a lie.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	known := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x2fc12fc1: "zfs",
	}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
