package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/experiments"
)

// envStamp records what a result was measured on, so deltas across
// commits can be read.
type envStamp struct {
	Commit           string  `json:"commit"`
	Tree             string  `json:"tree"` // SHA-256 over the module's Go sources
	GoVersion        string  `json:"go_version"`
	BenchGOMAXPROCS  int     `json:"bench_gomaxprocs"`
	DaemonGOMAXPROCS int     `json:"daemon_gomaxprocs"`
	NProc            int     `json:"nproc"`
	Kernel           string  `json:"kernel"`
	StoreFS          string  `json:"store_fs"`
	Seed             uint64  `json:"seed"`
	Seconds          float64 `json:"seconds"`
	Ops              int     `json:"ops"`
	Samples          int     `json:"samples"`
}

func stamp(b *bench, r *outcome) envStamp {
	e := envStamp{
		Commit:           "unknown (not a git checkout)",
		Tree:             treeHash(b.root),
		GoVersion:        runtime.Version(),
		BenchGOMAXPROCS:  runtime.GOMAXPROCS(0),
		DaemonGOMAXPROCS: runtime.NumCPU(), // the daemon keeps the runtime default
		NProc:            runtime.NumCPU(),
		StoreFS:          fsType(b.work),
		Seed:             b.seed,
		Seconds:          b.seconds,
		Ops:              r.ops,
		Samples:          r.samples,
	}
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		e.DaemonGOMAXPROCS = v
	}
	if _, err := os.Stat(filepath.Join(b.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", b.root, "rev-parse", "HEAD").Output(); err == nil {
			e.Commit = strings.TrimSpace(string(out))
		}
	}
	if k, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(k))
	}
	return e
}

// treeHash identifies the source tree under test when there is no
// commit to name: SHA-256 over the paths and contents of its .go files
// and go.mod files, build outputs excluded.
func treeHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // a partial hash still identifies the tree
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\n")
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return "0x" + strconv.FormatUint(uint64(st.Type), 16)
}

func experimentNames() []string {
	var out []string
	for _, e := range experiments.Registry() {
		out = append(out, e.Name)
	}
	return out
}
