package mem

// DirtyFreeList lets the external tests recycle frames full of b.
var DirtyFreeList = dirtyFreeList
