"""The mesher: cubed-sphere globe meshes, numbering, sorting, surfaces."""

from .central_cube import (
    INFLATION_GAMMA,
    assign_cube_columns,
    cube_surface_radius,
    map_cube_points,
)
from .cuthill_mckee import (
    cuthill_mckee_order,
    element_adjacency,
    multilevel_cache_blocks,
    reorder_elements,
)
from .element import RegionMesh, SliceMesh
from .interfaces import (
    external_faces,
    face_points,
    face_values,
    faces_at_radius,
)
from .mesher import (
    GlobalMesh,
    MesherStats,
    assign_materials,
    build_global_mesh,
    build_slice_mesh,
)
from .partition import ElementSplit, split_elements, split_slice_elements
from .numbering import (
    apply_global_permutation,
    average_global_stride,
    build_global_numbering,
    renumber_first_touch,
)
from .quality import (
    MeshResolution,
    element_size_range,
    estimate_resolution,
    estimate_time_step,
    load_balance_imbalance,
)
from .radial import central_cube_radius_km, radial_breaks_km, region_bounds_km

__all__ = [
    "INFLATION_GAMMA",
    "assign_cube_columns",
    "cube_surface_radius",
    "map_cube_points",
    "cuthill_mckee_order",
    "element_adjacency",
    "multilevel_cache_blocks",
    "reorder_elements",
    "RegionMesh",
    "SliceMesh",
    "external_faces",
    "face_points",
    "face_values",
    "faces_at_radius",
    "GlobalMesh",
    "MesherStats",
    "assign_materials",
    "build_global_mesh",
    "build_slice_mesh",
    "ElementSplit",
    "split_elements",
    "split_slice_elements",
    "apply_global_permutation",
    "average_global_stride",
    "build_global_numbering",
    "renumber_first_touch",
    "MeshResolution",
    "element_size_range",
    "estimate_resolution",
    "estimate_time_step",
    "load_balance_imbalance",
    "central_cube_radius_km",
    "radial_breaks_km",
    "region_bounds_km",
]
