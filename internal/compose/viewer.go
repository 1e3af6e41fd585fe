package compose

import (
	"fmt"

	"hybridstitch/internal/global"
	"hybridstitch/internal/stitch"
	"hybridstitch/internal/tile"
)

// Viewer renders arbitrary viewports of the stitched plate on demand,
// without ever materializing the full composite — the paper's system
// "composes and renders the composite image without saving it in 15 s",
// and its visualization prototype serves the plate "at varying
// resolutions" (Figs 13, 14 come from it). Rendering a viewport touches
// only the tiles that intersect it, so panning a 17k×22k plate stays
// interactive even though the composite would not fit in a GUI texture.
//
// A Viewer caches decoded tiles with a bounded LRU so repeated pans over
// the same region avoid re-reading; the cache bound plays the same role
// as the pipeline's buffer pool — predictable memory under any access
// pattern.
type Viewer struct {
	pl  *global.Placement
	src stitch.Source

	cacheCap int
	cache    map[int]*tile.Gray16
	order    []int // LRU order, oldest first
}

// NewViewer creates a viewer over a placement and tile source. cacheTiles
// bounds the decoded-tile cache (≥1; 0 picks 2× the grid's column count,
// enough for a horizontal pan strip).
func NewViewer(pl *global.Placement, src stitch.Source, cacheTiles int) (*Viewer, error) {
	if pl == nil || src == nil {
		return nil, fmt.Errorf("compose: viewer needs a placement and a source")
	}
	if err := pl.Grid.Validate(); err != nil {
		return nil, err
	}
	if cacheTiles < 1 {
		cacheTiles = 2 * pl.Grid.Cols
	}
	return &Viewer{
		pl: pl, src: src,
		cacheCap: cacheTiles,
		cache:    make(map[int]*tile.Gray16),
	}, nil
}

// PlateBounds returns the full composite dimensions.
func (v *Viewer) PlateBounds() (w, h int) { return v.pl.Bounds() }

// CacheLen reports the number of tiles currently cached.
func (v *Viewer) CacheLen() int { return len(v.cache) }

// viewerSource reads tiles through the viewer's LRU cache.
type viewerSource struct{ v *Viewer }

func (s viewerSource) Grid() tile.Grid { return s.v.pl.Grid }

func (s viewerSource) ReadTile(c tile.Coord) (*tile.Gray16, error) {
	v, i := s.v, s.v.pl.Grid.Index(c)
	if t, ok := v.cache[i]; ok {
		// refresh LRU position
		for k, idx := range v.order {
			if idx == i {
				v.order = append(v.order[:k], v.order[k+1:]...)
				break
			}
		}
		v.order = append(v.order, i)
		return t, nil
	}
	t, err := v.src.ReadTile(c)
	if err != nil {
		return nil, err
	}
	if len(v.cache) >= v.cacheCap {
		oldest := v.order[0]
		v.order = v.order[1:]
		delete(v.cache, oldest)
	}
	v.cache[i] = t
	v.order = append(v.order, i)
	return t, nil
}

// Render produces the viewport with top-left (x0, y0) and size (w, h) in
// plate coordinates at full resolution. Pixels outside every tile are 0.
// Tiles draw in grid order, so overlaps resolve like BlendOverlay.
func (v *Viewer) Render(x0, y0, w, h int) (*tile.Gray16, error) {
	return v.RenderScaled(x0, y0, w, h, 0)
}

// RenderScaled renders the viewport (in plate coordinates) at pyramid
// level level, downsampled by 2^level — the multi-resolution access
// pattern of the visualization prototype; level 0 is full resolution.
// The viewport snaps to the plate's 2^level grid: output pixel (i, j) is
// level pixel (x0>>level + i, y0>>level + j), the same pixel the pyramid
// written by ComposeSharded holds there, and pixels past the level's
// edge are 0. The output is ⌈w/2^level⌉ × ⌈h/2^level⌉.
func (v *Viewer) RenderScaled(x0, y0, w, h, level int) (*tile.Gray16, error) {
	if w <= 0 || h <= 0 {
		return nil, fmt.Errorf("compose: invalid viewport %dx%d", w, h)
	}
	if level < 0 || level > 16 {
		return nil, fmt.Errorf("compose: invalid pyramid level %d", level)
	}
	// One source tile row per band: the default cache holds the two
	// tile rows a band touches, so a render reads each tile once. The
	// LRU is not synchronised, so the engine runs on the caller alone.
	opts := ShardedOpts{Blend: BlendOverlay, BandRows: v.pl.Grid.TileH}
	step := 1<<level - 1
	return render(v.pl, viewerSource{v}, x0>>level, y0>>level, (w+step)>>level, (h+step)>>level, level, opts, &laneRunner{})
}

// Overview renders the whole plate at the coarsest level whose longer
// side fits maxSide pixels.
func (v *Viewer) Overview(maxSide int) (*tile.Gray16, int, error) {
	if maxSide < 1 {
		return nil, 0, fmt.Errorf("compose: invalid overview size %d", maxSide)
	}
	w, h := v.PlateBounds()
	level := 0
	for (w>>uint(level)) > maxSide || (h>>uint(level)) > maxSide {
		level++
	}
	img, err := v.RenderScaled(0, 0, w, h, level)
	if err != nil {
		return nil, 0, err
	}
	return img, level, nil
}
