package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/store"
)

// dataset is a generated dataset in the cache.
type dataset struct {
	Snap    string // v4 snapshot, served from an OS file mapping
	Shards  string // 4-shard snapshot directory ("" unless requested)
	Triples int
}

type dataManifest struct {
	Triples int    `json:"triples"`
	Shards  bool   `json:"shards"`
	Datagen string `json:"datagen"` // digest of the datagen binary that wrote the files
}

const numShards = 4

var (
	snapCountRE  = regexp.MustCompile(`with (\d+) triples`)
	shardCountRE = regexp.MustCompile(`\((\d+) shards, (\d+) triples\)`)
)

// ensureData returns the dataset for (name, scale, seed), generating it
// with datagen on first use, and again whenever the datagen binary has
// changed (a new generator or snapshot writer must not be measured on the
// old one's files). Every use checks the cached files by triple count: the
// snapshot and the shard directory must both hold exactly the count
// datagen reported.
func ensureData(ctx context.Context, work, datagen, name, scale string, seed int64, shards bool) (dataset, error) {
	dir := filepath.Join(work, "data", fmt.Sprintf("%s-%s-seed%d", name, scale, seed))
	ds := dataset{Snap: filepath.Join(dir, "store.v4.snap")}
	if shards {
		ds.Shards = filepath.Join(dir, "store.shards")
	}
	digest, err := fileDigest(datagen)
	if err != nil {
		return ds, err
	}
	mpath := filepath.Join(dir, "manifest.json")
	var m dataManifest
	if data, err := os.ReadFile(mpath); err == nil && json.Unmarshal(data, &m) == nil && m.Triples > 0 && m.Datagen == digest {
		have := dataset{Snap: ds.Snap, Triples: m.Triples}
		if m.Shards {
			have.Shards = filepath.Join(dir, "store.shards")
		}
		if err := checkData(have); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: cached dataset %s failed its check (%v); regenerating\n", dir, err)
			m = dataManifest{}
		}
	} else {
		m = dataManifest{}
	}
	if m.Triples == 0 {
		m.Datagen = digest
		if err := os.RemoveAll(dir); err != nil {
			return ds, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return ds, err
		}
		n, err := runDatagen(ctx, datagen, snapCountRE, 1, name, scale, seed, "-snapshot-version", "4", "-out", ds.Snap)
		if err != nil {
			return ds, err
		}
		m.Triples = n
	}
	ds.Triples = m.Triples
	if shards && !m.Shards {
		n, err := runDatagen(ctx, datagen, shardCountRE, 2, name, scale, seed, "-shards", strconv.Itoa(numShards), "-out", ds.Shards)
		if err != nil {
			return ds, err
		}
		if n != m.Triples {
			return ds, fmt.Errorf("datagen wrote %d triples into shards but %d into the snapshot", n, m.Triples)
		}
		m.Shards = true
	}
	if err := checkData(ds); err != nil {
		return ds, err
	}
	data, err := json.Marshal(m)
	if err != nil {
		return ds, err
	}
	if err := os.WriteFile(mpath, data, 0o644); err != nil {
		return ds, err
	}
	return ds, nil
}

// fileDigest returns the hex sha256 of the file at path.
func fileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// runDatagen writes one snapshot form and returns the triple count datagen
// reported (submatch group of re on its stderr).
func runDatagen(ctx context.Context, bin string, re *regexp.Regexp, group int, name, scale string, seed int64, extra ...string) (int, error) {
	args := append([]string{"-dataset", name, "-scale", scale, "-seed", strconv.FormatInt(seed, 10), "-format", "snapshot"}, extra...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 0, fmt.Errorf("datagen %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
	m := re.FindStringSubmatch(string(out))
	if m == nil {
		return 0, fmt.Errorf("datagen %s: no triple count in output %q", strings.Join(args, " "), out)
	}
	return strconv.Atoi(m[group])
}

// checkData opens the cached files and compares their triple counts with
// the manifest.
func checkData(ds dataset) error {
	st, err := store.LoadAnyMapped(ds.Snap)
	if err != nil {
		return err
	}
	n := st.Len()
	release(st)
	if n != ds.Triples {
		return fmt.Errorf("%s holds %d triples, want %d", ds.Snap, n, ds.Triples)
	}
	if ds.Shards == "" {
		return nil
	}
	if _, err := os.Stat(ds.Shards); err != nil {
		return err
	}
	sh, err := store.LoadSharded(ds.Shards, false)
	if err != nil {
		return err
	}
	n = sh.Len()
	release(sh)
	if n != ds.Triples {
		return fmt.Errorf("%s holds %d triples, want %d", ds.Shards, n, ds.Triples)
	}
	return nil
}

// release drops the file mappings an opened store holds.
func release(st store.Source) {
	for _, m := range st.Mappings() {
		m.Release()
	}
}
