package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
)

// expect is the stored outcome of one operation: the process exit code (or
// HTTP status) and the SHA-256 of its output. The digests detect
// regressions; the interpreter gate is the reference they were checked
// against when recorded.
type expect struct {
	Code   int    `json:"code"`
	SHA256 string `json:"sha256"`
}

// expectations is the digest store under bench/expected. In record mode a
// check stores what it sees instead of comparing, and fails if one key
// sees two different outcomes (a nondeterministic output).
type expectations struct {
	path   string
	record bool

	mu       sync.Mutex
	m        map[string]expect
	recorded map[string]bool
}

func loadExpected(path string, record bool) (*expectations, error) {
	e := &expectations{path: path, record: record, m: map[string]expect{}, recorded: map[string]bool{}}
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) && record {
		return e, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &e.m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return e, nil
}

// check compares an operation's outcome with the stored one for key.
func (e *expectations) check(key string, code int, digest string) error {
	got := expect{Code: code, SHA256: digest}
	e.mu.Lock()
	defer e.mu.Unlock()
	want, ok := e.m[key]
	if e.record && !e.recorded[key] {
		e.m[key], e.recorded[key] = got, true
		return nil
	}
	switch {
	case !ok:
		return fmt.Errorf("%s: no expected digest (record with -update-expected)", key)
	case want != got:
		return fmt.Errorf("%s: got code %d digest %.12s, want code %d digest %.12s", key, code, digest, want.Code, want.SHA256)
	}
	return nil
}

func (e *expectations) save() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	b, err := json.MarshalIndent(e.m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.path, append(b, '\n'), 0o644)
}
