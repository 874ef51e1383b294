package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
	"gosplice/internal/srctree"
)

// compilerOutputDigest pins everything the compiler emits over the
// corpus: the serialized SOF object of every unit of every release under
// both KernelBuild and KspliceBuild, the four linked kernel images, and
// the tarball of every corpus CVE's CreateUpdate. A compiler change that
// moves one byte of object code, a symbol or a relocation anywhere in
// the corpus changes this digest.
const compilerOutputDigest = "a2d17ce6d0b99a6d9aa5776ee2ba13f7a2002076d2743f50b816e23c290fb0be"

func TestCorpusCompilerOutputDigest(t *testing.T) {
	h := sha256.New()
	var n [8]byte
	put := func(label string, b []byte) {
		for _, s := range [][]byte{[]byte(label), b} {
			binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
			h.Write(n[:])
			h.Write(s)
		}
	}
	var buf bytes.Buffer
	objects, images, tarballs := 0, 0, 0
	for _, version := range cvedb.Versions {
		tree := cvedb.Tree(version)
		for _, opts := range []codegen.Options{codegen.KernelBuild(), codegen.KspliceBuild()} {
			br, err := srctree.BuildCached(tree, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", version, opts.CacheKey(), err)
			}
			for _, f := range br.Objects {
				buf.Reset()
				if err := f.Write(&buf); err != nil {
					t.Fatalf("%s %s: %v", version, f.SourcePath, err)
				}
				put(version+":"+opts.CacheKey()+":"+f.SourcePath, buf.Bytes())
				objects++
			}
			if !opts.ObjectSections {
				im, err := srctree.LinkKernelCached(br, kernel.KernelBase)
				if err != nil {
					t.Fatalf("%s: %v", version, err)
				}
				buf.Reset()
				if err := im.WriteImage(&buf); err != nil {
					t.Fatalf("%s: %v", version, err)
				}
				put(version+":image", buf.Bytes())
				images++
			}
		}
	}
	for _, c := range cvedb.All() {
		u, err := CreateUpdate(cvedb.Tree(c.Version), c.Patch(), CreateOptions{Name: "ksplice-" + c.ID})
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		b, _, _, err := u.EncodeTar()
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		put(c.ID, b)
		tarballs++
	}
	if images != len(cvedb.Versions) || tarballs != 64 {
		t.Fatalf("hashed %d images and %d tarballs, want %d and 64", images, tarballs, len(cvedb.Versions))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != compilerOutputDigest {
		t.Errorf("%d objects, %d images, %d tarballs: digest %s, want %s",
			objects, images, tarballs, got, compilerOutputDigest)
	}
}
