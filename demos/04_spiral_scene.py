"""Build the shipped spiral scene and inspect its certified structure.

The curve is a two-armed spherical spiral: one arm winds three turns from
colatitude 30 degrees down to the south pole, the other is its half-turn
rotation traversed back up.  Coning the center onto the subdivided chain
yields the panel fan; a polar loop cones to the separating disk that meets
the fan in exactly one point.

This builds the full default scene (a few hundred milliseconds) and then
re-expands the contracted vertex to show one concrete blocked placement.
"""

from fractions import Fraction

from plgraph import (
    Segment,
    build_scene,
    default_paper_config,
    disk_disk_classify,
)
from plgraph.scene import split_scene_embedding

cfg = default_paper_config()
scene = build_scene(cfg)

print("panel fan triangles:   ", scene.gamma_prime.n_triangles, "(= 2n)")
print("full cone triangles:   ", scene.delta_disk.n_triangles)
print("strip patch triangles: ", len(scene.delta_patch.triangles))
print("separating cone:       ", scene.d_f.n_triangles)

res = disk_disk_classify(scene.d_f, scene.gamma_prime)
print("\nseparating cone vs panel fan:", res.kind, "at", res.point,
      "(on both boundaries)" if res.on_boundary_1 and res.on_boundary_2 else "")

# Split the contracted vertex: x lands just off the center, on the positive
# side of the fan's first triangle.  However small the offset, at least one
# of its three attachment segments crosses the panel fan's interior.
psi = split_scene_embedding(scene, Fraction(1, 10 ** 6))
x = psi.position["x"]
print("\nsplit vertex at", tuple(float(c) for c in x.coords()))
for name in ("a1", "c", "b1"):
    seg = Segment(psi.position[name], x)
    verdict = scene.gamma_prime.classify_segment(seg)
    print(f"segment {name}-x: {verdict.kind}")
print("\nFor the grid-wide statement run: plgraph verify-star --demo")
