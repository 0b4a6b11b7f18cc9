package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// section is one experiment's block of diadsbench output and its SHA-256.
type section struct{ name, sha string }

// goldenSections pins the full default output at seed 42 bit for bit, one
// SHA-256 per `==== name ====` section (header and trailing rule included),
// in output order. The sections concatenate to the whole output, so a
// removed or reordered experiment shows as a missing or misplaced row and a
// changed number as one moved hash. Before updating a hash, print the
// output with `go run ./cmd/diadsbench -only NAME` and diff it against the
// parent commit's.
var goldenSections = []section{
	{"table1", "dd38861944a8018cc01984dad8d0c1568639fcab13a4d49392c1b12787cf5797"},
	{"table2", "d39dad74c7bcee97dad2d4c0a91e79a50715506d1dfd9722e5ee582fbb795ed0"},
	{"fig1", "37acc45f9f0516c977bc53d4eaee404bbe4e6acb851df564c769b901b28c1347"},
	{"fig3", "25da7e05694d7113354aadf697ea60457fbcc4b2c0a861286b8ff9fe10fe1391"},
	{"fig4", "e4241e793eca7a0d633f1c295c785a4c27c9296a5a61bfd6d7a46f02b7e82bb7"},
	{"fig5", "8dbe5f1ea0cdee4f291083480ba4496d1784a3b33415d1ff9b80dbe3cb6ba79f"},
	{"fig6", "c67745427dd520b785cbc5580abdd912682bfa71010bd11ebbaa4d38515542bd"},
	{"fig7", "bc173c07faa7fa7817e91889649371ff02dc0afbb07f3112a3ccf40c06713429"},
	{"kde", "ee9cf9225a6a0eb923518c33a76dc1f5ddcd1be0f3e7b0cb324fc463cb8333d3"},
	{"baselines", "b5c12ff50d2aa84d294c86c0b5f28c74940b12fad1c5f0c0a042551931632304"},
	{"sd", "4f3dcf378cf1fe06e0dabb33a4462e74ac719c6c7df3e0892142c14c261b2d5e"},
	{"ablations", "c8360229aad7ed7ba45cf40f1dea150f95dd44cb7252401e12f070e26901566f"},
	{"selfheal", "3b63059fd84ba49afc772605a8adb0c4e04d42db7751c9f4243b8f440021ddf2"},
	{"robustness", "eeaf258b8d016d3490b3ea0a79904fbe24c02b22c1a399c7896649738b4f7d39"},
}

// TestOutputGolden checks every section of the default seed-42 output
// against goldenSections: the same names in the same order, each with its
// hash, and nothing before, between or after them.
func TestOutputGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 42, ""); err != nil {
		t.Fatal(err)
	}
	got, err := splitSections(out.String())
	if err != nil {
		t.Fatal(err)
	}
	var gotNames, wantNames []string
	for _, s := range got {
		gotNames = append(gotNames, s.name)
	}
	for _, s := range goldenSections {
		wantNames = append(wantNames, s.name)
	}
	if strings.Join(gotNames, " ") != strings.Join(wantNames, " ") {
		t.Fatalf("sections = %v, want %v", gotNames, wantNames)
	}
	for i, s := range got {
		if s.sha != goldenSections[i].sha {
			t.Errorf("section %s SHA-256 = %s, want %s", s.name, s.sha, goldenSections[i].sha)
		}
	}
}

// splitSections cuts the output into its `==== name ====` sections, each
// running through the 72-column rule that closes it, and hashes each one.
// Output that is not exactly a sequence of such sections is an error.
func splitSections(out string) ([]section, error) {
	rule := "\n" + strings.Repeat("=", 72) + "\n"
	var secs []section
	for out != "" {
		header, _, ok := strings.Cut(out, "\n")
		name, found := strings.CutPrefix(header, "==== ")
		name, suffixed := strings.CutSuffix(name, " ====")
		if !ok || !found || !suffixed {
			return nil, fmt.Errorf("want a section header, got %q", header)
		}
		end := strings.Index(out, rule)
		if end < 0 {
			return nil, fmt.Errorf("section %s has no closing rule", name)
		}
		end += len(rule)
		sum := sha256.Sum256([]byte(out[:end]))
		secs = append(secs, section{name, hex.EncodeToString(sum[:])})
		out = out[end:]
	}
	return secs, nil
}
