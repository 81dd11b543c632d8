package bio

import (
	"bytes"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"

	"s3asim/internal/stats"
)

const sampleFASTA = `>Perilla_0001 Perilla frutescens CDS
TTGGTATCCACGGAAGAGAGAGAAAATGTTGGGAATTTTCAGCGGAC
GTATAGTATCATTGCCGGAAGAGCTGGTGGCTGCCGGGAACC
>Perilla_0002
GGAGGGTGGCTGGTGGGTATTGGCGGCCCGACC

>Perilla_0003 short
ACGT
`

func TestReadFASTA(t *testing.T) {
	seqs, err := ParseFASTAString(sampleFASTA)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 3 {
		t.Fatalf("records = %d, want 3", len(seqs))
	}
	if seqs[0].ID != "Perilla_0001" || seqs[0].Description != "Perilla frutescens CDS" {
		t.Fatalf("header parse: %+v", seqs[0])
	}
	if seqs[0].Len() != 47+42 {
		t.Fatalf("multiline sequence length = %d, want %d", seqs[0].Len(), 47+42)
	}
	if seqs[1].ID != "Perilla_0002" || seqs[1].Description != "" {
		t.Fatalf("bare header parse: %+v", seqs[1])
	}
	if string(seqs[2].Data) != "ACGT" {
		t.Fatalf("third sequence = %q", seqs[2].Data)
	}
}

func TestReadFASTAErrors(t *testing.T) {
	if _, err := ParseFASTAString("ACGT\n>late header\nACGT\n"); err == nil {
		t.Fatal("data before header should fail")
	}
	if _, err := ParseFASTAString(""); err == nil {
		t.Fatal("empty input should fail")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	in := []Sequence{
		{ID: "a", Description: "first", Data: bytes.Repeat([]byte("ACGT"), 50)},
		{ID: "b", Data: []byte("TTTT")},
		{ID: "c", Description: "empty"},
	}
	var buf bytes.Buffer
	if err := WriteFASTA(&buf, in, 60); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip records = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || out[i].Description != in[i].Description ||
			!bytes.Equal(out[i].Data, in[i].Data) {
			t.Fatalf("record %d differs: %+v vs %+v", i, out[i], in[i])
		}
	}
	// Wrapping actually happened.
	lines := strings.Split(buf.String(), "\n")
	for _, l := range lines {
		if len(l) > 61 {
			t.Fatalf("line longer than width: %q", l)
		}
	}
}

func TestGenerateDatabaseDeterministic(t *testing.T) {
	spec := GenSpec{NumSeqs: 50, SizeHist: stats.Uniform(10, 100), Seed: 9}
	a := Generate(spec)
	b := Generate(spec)
	if len(a.Seqs) != 50 || a.TotalBytes != b.TotalBytes {
		t.Fatal("generation not deterministic")
	}
	for i := range a.Seqs {
		if !bytes.Equal(a.Seqs[i].Data, b.Seqs[i].Data) {
			t.Fatalf("sequence %d content differs", i)
		}
	}
}

func TestGenerateRespectsAlphabetAndSizes(t *testing.T) {
	spec := GenSpec{NumSeqs: 30, SizeHist: stats.Uniform(5, 50), Alphabet: DNAAlphabet, Seed: 2}
	db := Generate(spec)
	for i := range db.Seqs {
		n := db.Seqs[i].Len()
		if n < 5 || n > 50 {
			t.Fatalf("sequence %d length %d out of histogram", i, n)
		}
		for _, c := range db.Seqs[i].Data {
			if !strings.ContainsRune(DNAAlphabet, rune(c)) {
				t.Fatalf("sequence %d has foreign residue %c", i, c)
			}
		}
	}
	min, max, mean := db.Stats()
	if min < 5 || max > 50 || mean < 5 || mean > 50 {
		t.Fatalf("stats out of range: %d %d %.1f", min, max, mean)
	}
}

func TestPartitionCoversDatabase(t *testing.T) {
	db := Generate(GenSpec{NumSeqs: 101, SizeHist: stats.Uniform(10, 5000), Seed: 4})
	for _, k := range []int{1, 2, 7, 16, 128} {
		frags := db.Partition(k)
		if len(frags) != k {
			t.Fatalf("k=%d: %d fragments", k, len(frags))
		}
		pos := 0
		var total int64
		for i, f := range frags {
			if f.Index != i || f.Start != pos || f.End < f.Start {
				t.Fatalf("k=%d fragment %d malformed: %+v (pos %d)", k, i, f, pos)
			}
			pos = f.End
			total += f.Bytes
			seqs := db.FragmentSeqs(f)
			var b int64
			for j := range seqs {
				b += int64(seqs[j].Len())
			}
			if b != f.Bytes {
				t.Fatalf("k=%d fragment %d bytes %d, want %d", k, i, f.Bytes, b)
			}
		}
		if pos != len(db.Seqs) || total != db.TotalBytes {
			t.Fatalf("k=%d: coverage pos=%d total=%d, want %d/%d",
				k, pos, total, len(db.Seqs), db.TotalBytes)
		}
	}
}

func TestPartitionBalance(t *testing.T) {
	db := Generate(GenSpec{NumSeqs: 1000, SizeHist: stats.Uniform(100, 200), Seed: 7})
	frags := db.Partition(10)
	avg := float64(db.TotalBytes) / 10
	for _, f := range frags {
		if float64(f.Bytes) < avg*0.8 || float64(f.Bytes) > avg*1.2 {
			t.Fatalf("fragment %d bytes %d far from average %.0f", f.Index, f.Bytes, avg)
		}
	}
}

// Property: partitioning is a exact cover for any k and any database shape.
func TestPropertyPartitionExactCover(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw%64) + 1
		k := int(kRaw%32) + 1
		db := Generate(GenSpec{NumSeqs: n, SizeHist: stats.Uniform(1, 500), Seed: seed})
		frags := db.Partition(k)
		pos := 0
		var total int64
		for i, fr := range frags {
			if fr.Start != pos || fr.Index != i {
				return false
			}
			pos = fr.End
			total += fr.Bytes
		}
		return pos == len(db.Seqs) && total == db.TotalBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNTLikeDatabaseMatchesPaperShape(t *testing.T) {
	db := Generate(GenSpec{NumSeqs: 3000, SizeHist: stats.NTLike(), Seed: 13})
	min, _, mean := db.Stats()
	if min < 6 {
		t.Fatalf("min sequence %d below NT minimum", min)
	}
	if mean < 1500 || mean > 20000 {
		t.Fatalf("mean %.0f wildly off the NT mean of 4401", mean)
	}
}

// TestGenerateDatabaseGolden pins every length and residue a small
// generated database draws, so a change to the substream generator that
// moved any draw fails here.
func TestGenerateDatabaseGolden(t *testing.T) {
	db := Generate(GenSpec{NumSeqs: 64, SizeHist: stats.Uniform(20, 300), Seed: 11})
	h := fnv.New64a()
	for _, s := range db.Seqs {
		h.Write(s.Data)
		h.Write([]byte{'\n'})
	}
	if got, want := h.Sum64(), uint64(0xa6a3c1e1d60b4be7); got != want {
		t.Fatalf("database hash = %#x (%d bytes), want %#x", got, db.TotalBytes, want)
	}
}
