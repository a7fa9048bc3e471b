"""frustumkit: geometric and numerical core for frustum-based 3D detection.

The package turns 2D image rectangles into depth-bounded frustum proposals,
sizes axis-aligned crop boxes by recall analysis, voxelizes crops for a 3D
convolutional backbone, encodes/decodes oriented-box regression targets, and
evaluates detections — plus a two-stage latency simulator and a synthetic
scene generator that make every experiment reproducible end to end.
"""

from .errors import (
    EncodeDomainError,
    FrustumKitError,
    GeometryError,
    InfeasibleSizeError,
    InvariantViolation,
    ManifestError,
    NoCandidatesError,
    ShapePlanError,
    UnsupportedScaleError,
)
from .geometry import (
    Aabb3,
    CameraIntrinsics,
    OrientedBox3,
    Rect2,
    RigidTransform,
    project_cloud,
    read_cloud_binary,
    tile_points,
    write_cloud_binary,
)
from .ioi import (
    IoiBreakdown,
    RecallReport,
    crop_scores,
    ioi,
    iou_2d,
    iou_3d,
    recall_from_breakdowns,
    recall_lower_bound,
)
from .cropbox import (
    SCALE_SPECS,
    CurvePoint,
    ObjectSample,
    ScaleSpec,
    SizeSearchConfig,
    assign_scale,
    best_cropbox,
    candidate_centers,
    get_scale_spec,
    recall_curves,
    select_min_size,
)
from .voxelizer import (
    VoxelGrid,
    voxelize,
    write_voxel_grid,
)
from .dhs import DhsImage, RangeImage, depth_to_dhs, read_range_image, world_points, write_range_image
from .head import (
    Anchor,
    HeadVector,
    LossWeights,
    compute_anchors,
    decode,
    encode,
    fd_check,
    loss,
    loss_grad,
)
from .netshape import (
    LayerSpec,
    ShapePlan,
    default_layers,
    default_plan,
    forward_naive,
    propagate,
)
from .evalkit import (
    CategoryEval,
    Detection,
    EvalReport,
    LabeledBox,
    MetricsRow,
    average_precision,
    center_size_metrics,
    evaluate,
    match,
)
from .pipesim import (
    FrameTrace,
    StageTiming,
    exact_throughput_fps,
    simulate,
    stale_frustum_experiment,
)
from .scenegen import (
    CATEGORY_PRESETS,
    Scene,
    SceneSpec,
    random_scene,
    render,
    standard_camera,
)
from .manifest import Manifest, iter_object_samples, load_manifest, manifest_to_json

__version__ = "0.1.0"
