package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// Readers for the kernel counters the benchmark reports beside the
// program's own: /proc/net/snmp (TCP opens), /proc/net/dev (loopback
// bytes), /proc/net/sockstat (TIME_WAIT) and /proc/self/status (VmHWM).
// On a system without them every reader returns zero.

// conditions are the run conditions printed at the start of every run,
// so a drifting set of runs can be explained.
type conditions struct {
	nproc, gomaxprocs int
	goVersion         string
	timeWait          int    // kernel TIME_WAIT sockets at start
	journalFS         string // filesystem type of the run directory
}

func readConditions(runDir string) conditions {
	return conditions{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		timeWait:   timeWaitCount(),
		journalFS:  fsType(runDir),
	}
}

func (c conditions) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s time_wait=%d journal_fs=%s",
		c.nproc, c.gomaxprocs, c.goVersion, c.timeWait, c.journalFS)
}

// timeWaitCount reads the "tw" field of the TCP line of
// /proc/net/sockstat.
func timeWaitCount() int {
	data, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || f[0] != "TCP:" {
			continue
		}
		for k := 1; k+1 < len(f); k += 2 {
			if f[k] == "tw" {
				n, _ := strconv.Atoi(f[k+1])
				return n
			}
		}
	}
	return 0
}

// tcpActiveOpens reads Tcp ActiveOpens (connections this host dialled)
// from /proc/net/snmp.
func tcpActiveOpens() float64 {
	f, err := os.Open("/proc/net/snmp")
	if err != nil {
		return 0
	}
	defer func() { _ = f.Close() }()
	var header []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || fields[0] != "Tcp:" {
			continue
		}
		if header == nil {
			header = fields
			continue
		}
		for k, name := range header {
			if name == "ActiveOpens" && k < len(fields) {
				v, _ := strconv.ParseFloat(fields[k], 64)
				return v
			}
		}
	}
	return 0
}

// loopbackBytes reads the received byte count of the lo interface from
// /proc/net/dev; on loopback every byte sent is also received once.
func loopbackBytes() float64 {
	data, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		if f := strings.Fields(rest); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			return v
		}
	}
	return 0
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// fsType names the filesystem holding dir by its statfs magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext2/3/4",
		0x01021994: "tmpfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794C7630: "overlayfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
		0x2FC12FC1: "zfs",
	}
	magic := int64(st.Type)
	if name, ok := names[magic]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", magic)
}
