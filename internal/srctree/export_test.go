package srctree

import "maps"

// UnitKeyForTest returns the content hash that keys the unit at path,
// as a build of t computes it.
func UnitKeyForTest(t *Tree, path string) string { return t.unitKey(path).hash }

// FilesForTest returns a copy of t's files, so an external test can
// build a parentless tree of the same content.
func FilesForTest(t *Tree) map[string]string { return maps.Clone(t.files) }
