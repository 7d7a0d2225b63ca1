package fsam_test

// Content-address golden for the incremental path: one program-level key
// (facts.Snapshot.ProgKey) per fixture, per suite program at scale 1 and
// per Threaded random program, all under the default Config, is pinned in
// testdata/progkeys.golden. fsamd hands these keys out as delta bases, so
// a change to the keying scheme silently invalidates every base a client
// holds; any refactor of internal/facts must leave the file byte-identical.
// Regenerate after an intended keying change with:
//
//	go test . -run TestProgKeysGolden -update-golden

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fsam "repro"
	"repro/internal/facts"
	"repro/internal/frontend/parser"
	"repro/internal/randprog"
	"repro/internal/workload"
)

func progKeyLine(t *testing.T, name, src string) string {
	t.Helper()
	f, err := parser.ParseChecked(name, src)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return fmt.Sprintf("%s %s\n", name, facts.SnapshotFile(fsam.Config{}.Canonical(), f).ProgKey)
}

func TestProgKeysGolden(t *testing.T) {
	var b strings.Builder
	for _, path := range corpusPaths(t) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(progKeyLine(t, filepath.ToSlash(path), string(src)))
	}
	for _, spec := range workload.Suite {
		b.WriteString(progKeyLine(t, spec.Name+"@1", workload.GenerateSpec(spec, 1)))
	}
	for seed := int64(1); seed <= 4; seed++ {
		b.WriteString(progKeyLine(t, fmt.Sprintf("threaded#%d", seed), randprog.Threaded(seed, 3)))
	}
	checkGolden(t, filepath.Join("testdata", "progkeys.golden"), []byte(b.String()))
}
