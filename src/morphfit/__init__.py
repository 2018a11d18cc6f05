"""morphfit: pose and shape fitting of a PCA 3D shape model to grayscale
images by cascaded linear regression over local gradient-histogram
descriptors, with a synthetic data pipeline for desk-scale experiments."""

__version__ = "0.1.0"

from .camera import CameraConfig, pose_from_landmarks_rough, project_points, to_camera
from .cascade import CascadeRegressor, FitError, FitResult, ParamScale, TrainConfig, \
    WeakRegressor, fit, load_regressor, param_layout, predict_update, save_regressor, \
    train_cascade, train_stage
from .evaluate import EvalReport, evaluate, mae_angles, shape_cosine, write_report
from .features import DESCRIPTOR_SIZE, FeatureError, GrayImage, assemble_feature, \
    extract_descriptor, read_pgm, write_pgm
from .posit import Correspondences, DegenerateGeometryError, PositResult, \
    euler_from_rotation, posit
from .shape_model import ShapeModel, instance_shape, load_model, make_procedural_model, \
    save_model, select_landmarks
from .synth import ProtocolConfig, RenderConfig, RenderError, TrainingSample, \
    generate_set, load_dataset, render, write_dataset
