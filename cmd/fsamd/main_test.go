package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/exitcode"
)

// TestCacheMBOverflowIsUsage: a -cachemb whose byte count does not fit in
// an int64 is a usage error, not a wrapped (unbounded or default) cache.
func TestCacheMBOverflowIsUsage(t *testing.T) {
	for _, mb := range []string{"8796093022208", "17592186044416", "-8796093022209"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-addr", "127.0.0.1:0", "-cachemb", mb}, &stdout, &stderr)
		if code != exitcode.Usage || stdout.Len() != 0 || !strings.Contains(stderr.String(), "overflows") {
			t.Errorf("-cachemb %s: exit %d, stdout %q, stderr %q; want a usage error before listening",
				mb, code, stdout.String(), stderr.String())
		}
	}
}
