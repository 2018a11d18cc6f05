"""morphfit: pose and shape fitting of a PCA 3D shape model to grayscale
images by cascaded linear regression over local gradient-histogram
descriptors, with a synthetic data pipeline for desk-scale experiments."""

__version__ = "0.1.0"

from .camera import CameraConfig, project_points, to_camera
from .cascade import CascadeRegressor, FitError, FitResult, ParamScale, TrainConfig, \
    WeakRegressor, fit, load_regressor, predict_update, save_regressor, train_cascade, \
    train_stage
from .evaluate import EvalReport, angle_errors, evaluate, shape_cosine, write_report
from .features import DESCRIPTOR_SIZE, FeatureError, GrayImage, assemble_feature, \
    extract_descriptor, read_pgm, write_pgm
from .posit import DegenerateGeometryError, PositResult, euler_from_rotation, posit
from .shape_model import ShapeModel, instance_shape, load_model, make_procedural_model, \
    param_layout, save_model, select_landmarks
from .synth import ProtocolConfig, RenderError, TrainingSample, \
    generate_set, load_dataset, render, write_dataset
