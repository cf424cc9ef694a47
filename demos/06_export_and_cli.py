"""
Mesh export and the command line interface
==========================================

All meshes can be written to plain-text formats (OFF for surface
triangulations, legacy VTK for tetrahedra), and every study in the other
examples is reachable through the ``beltrami`` command line tool from a
small JSON config.  Outputs are deterministic: the same config produces
byte-identical artifacts.
"""

import json
import pathlib
import tempfile

from beltrami import Sphere, TraceProblem, build_bulk_mesh, extract_band
from beltrami.cli import main
from beltrami.meshes import build_sphere_mesh, write_off, write_vtk_tets

tmp = tempfile.TemporaryDirectory(prefix="beltrami_demo_")
out = pathlib.Path(tmp.name)
sphere = Sphere(1.0)

# --- direct export ----------------------------------------------------------
mesh = build_sphere_mesh(sphere, 3)
write_off(out / "icosphere3.off", mesh.vertices, mesh.triangles)

bulk = build_bulk_mesh(sphere, 12)
cut = TraceProblem(sphere, bulk).cut
write_off(out / "cut12.off", cut.vertices, cut.faces)
# the bulk lattice is implicit: export the narrow band's vertices and its
# tetrahedra numbered into them (``band.dofs``)
band = extract_band(bulk, sphere, 1.5 * bulk.h)
write_vtk_tets(out / "band12.vtk", bulk.vertex_points(band.active_dofs), band.dofs)

counts = (out / "cut12.off").read_text().splitlines()[1]
print("written:")
print(f"  icosphere3.off : {mesh.n_vertices} vertices, {mesh.n_triangles} triangles")
print(f"  cut12.off      : header '{counts}' (vertices faces edges)")
print(f"  band12.vtk     : {band.n_active_dofs} vertices, {band.n_tets} tets"
      f" (of {bulk.n_vertices} and {bulk.n_tets} in the bulk lattice)")

# --- the same through the CLI -------------------------------------------------
# `beltrami converge` runs a refinement study, writes table.csv and
# converge.json, and (with --assert) checks EOC windows from the config,
# exiting nonzero if any misses.  main() is the console entry point.
config = {
    "surface": {"kind": "sphere", "radius": 1.0},
    "method": "parametric",
    "levels": [2, 3, 4],
    "windows": {"eoc_H1": [0.9, 1.1], "eoc_L2": [1.8, 2.2]},
}
cfg_path = out / "sphere.json"
cfg_path.write_text(json.dumps(config))

rc = main(["converge", "--config", str(cfg_path),
           "--out", str(out / "study"), "--assert"])
print(f"\nbeltrami converge --assert  ->  exit code {rc}")

# --method/--levels override the config without editing the file
rc = main(["export-mesh", "--config", str(cfg_path),
           "--out", str(out / "meshes"), "--method", "trace", "--levels", "8"])
print(f"beltrami export-mesh        ->  exit code {rc}")

print("\nartifacts:")
for path in sorted(out.rglob("*")):
    if path.is_file():
        print(f"  {path.relative_to(out)}  ({path.stat().st_size} bytes)")

table = (out / "study" / "table.csv").read_text().splitlines()
print("\ntable.csv:")
for line in table:
    print(f"  {line}")

tmp.cleanup()
