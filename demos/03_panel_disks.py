"""Fan disks as panels: when a cycle's spanning disk stays clear of a graph.

A panel for a cycle is a disk bounded by exactly that cycle whose interior
misses the rest of the embedded graph.  Fans make this checkable exactly:
the disk's interior is its open triangles plus the open shared spokes.
"""

from fractions import Fraction

from plgraph import (
    ExactPoint,
    LinearEmbedding,
    SpatialGraph,
    cone,
    panel_check,
    Segment,
)

P = ExactPoint

square = [P(0, 0, 0), P(2, 0, 0), P(2, 2, 0), P(0, 2, 0)]
disk = cone(P(1, 1, 0), square, closed=True)

graph = SpatialGraph([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)])
embedding = LinearEmbedding(graph, dict(enumerate(square)))
print("square alone:", panel_check(disk, embedding, [0, 1, 2, 3]).kind)

# Thread an extra edge through the square's interior and the panel breaks.
graph2 = SpatialGraph([0, 1, 2, 3, 4, 5],
                      [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5)])
pos = dict(enumerate(square))
pos[4] = P(1, Fraction(1, 2), -1)
pos[5] = P(1, Fraction(1, 2), 1)
res = panel_check(disk, LinearEmbedding(graph2, pos), [0, 1, 2, 3])
print("with a threading edge:", res.kind, "witness:", res.witness[:3])

# The disk-level classification behind the check distinguishes grazing the
# boundary from crossing the interior.
print()
for seg, label in [
    (Segment(P(1, Fraction(1, 2), -1), P(1, Fraction(1, 2), 1)), "through a face"),
    (Segment(P(0, 0, -1), P(0, 0, 1)), "through a rim corner"),
    (Segment(P(1, 1, -1), P(1, 1, 1)), "through the apex of a closed fan"),
]:
    print(label + ":", disk.classify_segment(seg).kind)
