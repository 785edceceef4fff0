package exp

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/atpg"
	"repro/internal/cube"
	"repro/internal/netgen"
)

// Cube-set disk cache: profile-exact ATPG runs on the large circuits
// take tens of minutes, so cmd/experiments -full callers set
// Config.CacheDir and pay that cost once. Cache entries are plain cube
// files with a header that encodes the generation key (profile +
// options + format version); any mismatch is treated as a miss, so
// stale entries can never poison a run.

// cacheVersion invalidates old entries when the ATPG pipeline changes
// behaviourally (relaxation, compaction, fault accounting, ...).
const cacheVersion = 4

// cacheKey captures everything that determines a generated cube set.
func cacheKey(p netgen.Profile, cfg Config) string {
	return fmt.Sprintf("v%d|%s|pis=%d|ffs=%d|gates=%d|seed=%d|mf=%d|mp=%d|cseed=%d",
		cacheVersion, p.Name, p.PIs, p.FFs, p.Gates, p.Seed,
		cfg.MaxFaults, cfg.MaxPatterns, cfg.Seed)
}

func cachePath(dir string, p netgen.Profile, cfg Config) string {
	h := fnv.New64a()
	h.Write([]byte(cacheKey(p, cfg)))
	return filepath.Join(dir, fmt.Sprintf("%s-%016x.cubes", p.Name, h.Sum64()))
}

// saveCache writes the cube set with its key and stats header.
func saveCache(path string, key string, set *cube.Set, st atpg.Stats) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# key: %s\n", key)
	fmt.Fprintf(w, "# stats: total=%d detected=%d untestable=%d aborted=%d patterns=%d dropped=%d merged=%d\n",
		st.TotalFaults, st.Detected, st.Untestable, st.Aborted,
		st.Patterns, st.DroppedBySim, st.Merged)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := set.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadCache returns the cached set and stats, or ok=false on any
// mismatch or parse problem (treated as a cache miss, never an error).
func loadCache(path, key string) (*cube.Set, atpg.Stats, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, atpg.Stats{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() || sc.Text() != "# key: "+key {
		return nil, atpg.Stats{}, false
	}
	var st atpg.Stats
	if !sc.Scan() {
		return nil, atpg.Stats{}, false
	}
	_, err = fmt.Sscanf(strings.TrimPrefix(sc.Text(), "# stats: "),
		"total=%d detected=%d untestable=%d aborted=%d patterns=%d dropped=%d merged=%d",
		&st.TotalFaults, &st.Detected, &st.Untestable, &st.Aborted,
		&st.Patterns, &st.DroppedBySim, &st.Merged)
	if err != nil {
		return nil, atpg.Stats{}, false
	}
	// The rest of the file is the cube set. Re-read from the current
	// offset via a fresh section reader over the remaining lines.
	var sb strings.Builder
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if sc.Err() != nil {
		return nil, atpg.Stats{}, false
	}
	set, err := cube.ReadSet(strings.NewReader(sb.String()))
	if err != nil || set.Len() != st.Patterns {
		return nil, atpg.Stats{}, false
	}
	return set, st, true
}
