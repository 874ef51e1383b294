package obj_test

import (
	"bytes"
	"runtime"
	"testing"

	"gosplice/internal/codegen"
	"gosplice/internal/cvedb"
	"gosplice/internal/kernel"
	"gosplice/internal/obj"
	"gosplice/internal/srctree"
)

// seedRelease is the release whose objects and kernel image seed the
// decoder fuzz targets.
var seedRelease = cvedb.Versions[0]

// allocBound is how much a decode of n input bytes may allocate. A
// record encodes in as few as 4 bytes and decodes into a struct of up
// to 80 plus a pointer to it, so an input of empty sections, symbols or
// relocations costs about 15 times its length; the rest is slack for
// the File or Image itself and, for ReadImage, the copy it reads.
func allocBound(n int) uint64 { return 24*uint64(n) + 16<<10 }

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzObjDecode feeds Decode arbitrary bytes, as the unit store and an
// update tarball's members hand it SOF objects. It must not panic, must
// allocate no more than a small multiple of its input, and an object it
// accepts must be a fixpoint of the encoding: Write → Decode → Write
// gives the same bytes. The seeds are every unit of one corpus release
// under both builds.
func FuzzObjDecode(f *testing.F) {
	tree := cvedb.Tree(seedRelease)
	for _, opts := range []codegen.Options{codegen.KernelBuild(), codegen.KspliceBuild()} {
		br, err := srctree.BuildCached(tree, opts)
		if err != nil {
			f.Fatal(err)
		}
		for _, o := range br.Objects {
			var buf bytes.Buffer
			if err := o.Write(&buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var of *obj.File
		var err error
		if n := allocated(func() { of, err = obj.Decode(b) }); n > allocBound(len(b)) {
			t.Fatalf("Decode of %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := of.Write(&first); err != nil {
			t.Fatalf("Write of an accepted object: %v", err)
		}
		again, err := obj.Decode(first.Bytes())
		if err != nil {
			t.Fatalf("Decode refuses Write's output: %v", err)
		}
		if err := again.Write(&second); err != nil {
			t.Fatalf("Write after a round trip: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Write → Decode → Write changed the bytes (%d → %d)", first.Len(), second.Len())
		}
	})
}

// FuzzReadImage feeds ReadImage arbitrary bytes, as the image store
// hands it linked kernels. The properties are FuzzObjDecode's, over
// WriteImage. The seeds are linked in the test from one corpus
// release's units: its whole kernel, and each unit that links alone.
func FuzzReadImage(f *testing.F) {
	br, err := srctree.BuildCached(cvedb.Tree(seedRelease), codegen.KernelBuild())
	if err != nil {
		f.Fatal(err)
	}
	add := func(files []*obj.File) {
		im, err := obj.Link(files, obj.LinkOptions{Base: kernel.KernelBase})
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := im.WriteImage(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	add(br.Objects)
	for _, o := range br.Objects {
		add([]*obj.File{o})
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var im *obj.Image
		var err error
		if n := allocated(func() { im, err = obj.ReadImage(bytes.NewReader(b)) }); n > allocBound(len(b)) {
			t.Fatalf("ReadImage of %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := im.WriteImage(&first); err != nil {
			t.Fatalf("WriteImage of an accepted image: %v", err)
		}
		again, err := obj.DecodeImage(first.Bytes())
		if err != nil {
			t.Fatalf("DecodeImage refuses WriteImage's output: %v", err)
		}
		if err := again.WriteImage(&second); err != nil {
			t.Fatalf("WriteImage after a round trip: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("WriteImage → DecodeImage → WriteImage changed the bytes (%d → %d)", first.Len(), second.Len())
		}
	})
}
