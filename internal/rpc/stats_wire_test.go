package rpc

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/store"
)

// statsKeyPaths walks a JSON document with json.Decoder tokens and returns
// every object key as a slash-joined path from the root, in wire order.
func statsKeyPaths(t *testing.T, data []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	var paths []string
	var walk func(prefix string)
	walk = func(prefix string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("walking stats JSON: %v", err)
		}
		delim, ok := tok.(json.Delim)
		if !ok {
			return // a scalar value
		}
		for dec.More() {
			path := prefix + "[]"
			if delim == '{' {
				key, err := dec.Token()
				if err != nil {
					t.Fatalf("walking stats JSON: %v", err)
				}
				path = strings.TrimPrefix(prefix+"/"+key.(string), "/")
				paths = append(paths, path)
			}
			walk(path)
		}
		if _, err := dec.Token(); err != nil { // the closing delimiter
			t.Fatalf("walking stats JSON: %v", err)
		}
	}
	walk("")
	return paths
}

// TestStatsWireKeyPaths pins the shape of swapd.stats on the wire: every
// key path, in wire order, with every optional block present (a store is
// configured and the fault injector has fired). The expected list is
// testdata/stats_keys.txt; a change to it is a wire change.
func TestStatsWireKeyPaths(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st, Fault: mustInjector(t, 1, "rpc.latency=1:1ms")})
	solveResult(t, ts.URL, `{"scenario":"tableIII","variant":"basic"}`)
	post(t, ts.URL, rpcCall(2, "scenario.list", ""))
	resp, _ := post(t, ts.URL, rpcCall(3, "swapd.stats", ""))
	if resp.Error != nil {
		t.Fatalf("swapd.stats: %+v", resp.Error)
	}
	got := statsKeyPaths(t, resp.Result)

	f, err := os.Open("testdata/stats_keys.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("swapd.stats key paths changed:\ngot:\n%s\n\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
