package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsUnknownFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunRejectsBadFaultSpec(t *testing.T) {
	err := run([]string{"-fault", "nope"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-fault") {
		t.Fatalf("err = %v, want a -fault parse error", err)
	}
}

func TestRunRejectsUnusableStoreDir(t *testing.T) {
	// A regular file where the store directory should be: Open must fail
	// before the daemon ever listens.
	path := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-store", path}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("err = %v, want a -store open error", err)
	}
}
