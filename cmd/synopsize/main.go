// Command synopsize builds, inspects, and compares set synopses from ID
// lists — a workbench for the estimators of Section 3.
//
// Usage:
//
//	seq 1 10000 | synopsize -kind mips -bits 2048          # build + stats
//	synopsize -a ids_a.txt -b ids_b.txt -kind bloom        # compare two sets
//	synopsize -a a.txt -b b.txt -kind mips -bits 1024 -out union.syn
//
// ID files contain one unsigned 64-bit integer per line; "-" means stdin.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"iqn/internal/synopsis"
)

func readIDs(path string) ([]uint64, error) {
	var r io.Reader
	if path == "-" {
		r = os.Stdin
	} else {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var ids []uint64
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		id, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad id %q: %w", line, err)
		}
		ids = append(ids, id)
	}
	return ids, sc.Err()
}

func trueStats(a, b []uint64) (distinctA, distinctB, inter, union int) {
	seen := make(map[uint64]struct{}, len(a))
	for _, id := range a {
		seen[id] = struct{}{}
	}
	distinctA = len(seen)
	union = distinctA
	bSeen := make(map[uint64]struct{}, len(b))
	for _, id := range b {
		if _, dup := bSeen[id]; dup {
			continue
		}
		bSeen[id] = struct{}{}
		if _, ok := seen[id]; ok {
			inter++
		} else {
			union++
		}
	}
	distinctB = len(bSeen)
	return distinctA, distinctB, inter, union
}

func main() {
	var (
		kindFlag = flag.String("kind", "mips", "synopsis kind: mips|bloom|hashsketch")
		bits     = flag.Int("bits", 2048, "space budget in bits")
		seed     = flag.Uint64("seed", 42, "MIPs permutation seed")
		aPath    = flag.String("a", "-", "first ID file (- for stdin)")
		bPath    = flag.String("b", "", "second ID file: enables comparison")
		outPath  = flag.String("out", "", "write the (union) synopsis binary here")
		compress = flag.Bool("compress", false, "for Bloom filters: also report the Golomb-Rice compressed wire size (Mitzenmacher)")
	)
	flag.Parse()
	kind, err := synopsis.ParseKind(*kindFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synopsize:", err)
		os.Exit(2)
	}
	cfg := synopsis.Config{Kind: kind, Bits: *bits, Seed: *seed}

	idsA, err := readIDs(*aPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "synopsize:", err)
		os.Exit(1)
	}
	sa := cfg.FromIDs(idsA)
	fmt.Printf("set A: %d ids, synopsis %s/%d bits, cardinality (exact) %.0f\n",
		len(idsA), kind, sa.SizeBits(), sa.Cardinality())
	if *compress {
		bf, ok := sa.(*synopsis.Bloom)
		if !ok {
			fmt.Fprintln(os.Stderr, "synopsize: -compress only applies to -kind bloom")
			os.Exit(2)
		}
		plain, err := bf.MarshalBinary()
		if err != nil {
			fmt.Fprintln(os.Stderr, "synopsize:", err)
			os.Exit(1)
		}
		comp, err := synopsis.CompressBloom(bf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "synopsize:", err)
			os.Exit(1)
		}
		fmt.Printf("wire size: plain %d B, compressed %d B (%.2fx)\n",
			len(plain), len(comp), float64(len(plain))/float64(len(comp)))
	}

	final := sa
	if *bPath != "" {
		idsB, err := readIDs(*bPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "synopsize:", err)
			os.Exit(1)
		}
		sb := cfg.FromIDs(idsB)
		fmt.Printf("set B: %d ids, synopsis %s/%d bits\n", len(idsB), kind, sb.SizeBits())
		est, err := sa.Resemblance(sb)
		if err != nil {
			fmt.Fprintln(os.Stderr, "synopsize:", err)
			os.Exit(1)
		}
		distinctA, distinctB, inter, union := trueStats(idsA, idsB)
		_ = distinctA
		trueR := 0.0
		if union > 0 {
			trueR = float64(inter) / float64(union)
		}
		nov, err := synopsis.EstimateNovelty(sa, sb, float64(len(idsA)), float64(len(idsB)))
		if err != nil {
			fmt.Fprintln(os.Stderr, "synopsize:", err)
			os.Exit(1)
		}
		fmt.Printf("resemblance: estimated %.4f, true %.4f\n", est, trueR)
		fmt.Printf("overlap:     estimated %.0f, true %d\n",
			synopsis.OverlapFromResemblance(est, float64(len(idsA)), float64(len(idsB))), inter)
		fmt.Printf("novelty(B|A): estimated %.0f, true %d\n", nov, distinctB-inter)
		u := sa.Clone()
		if err := u.UnionInPlace(sb); err != nil {
			fmt.Fprintln(os.Stderr, "synopsize:", err)
			os.Exit(1)
		}
		fmt.Printf("union:       estimated %.0f, true %d\n", u.Cardinality(), union)
		final = u
	}
	if *outPath != "" {
		data, err := final.MarshalBinary()
		if err != nil {
			fmt.Fprintln(os.Stderr, "synopsize:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*outPath, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "synopsize:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d bytes to %s\n", len(data), *outPath)
	}
}
