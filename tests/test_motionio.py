import json

import numpy as np
import pytest

from retargetkit.errors import DataError
from retargetkit.motionio import (
    MotionSequence,
    ObjectMesh,
    ShapeParams,
    _number_array,
    load_motion,
    load_obj,
    load_skeleton,
    save_motion,
    save_obj,
    save_skeleton,
)

from conftest import make_chain


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _joint(name, parent, offset):
    return {
        "name": name,
        "parent": parent,
        "offset": list(offset),
        "q_min": [-1.0, -1.0, -1.0],
        "q_max": [1.0, 1.0, 1.0],
        "v_min": -5.0,
        "v_max": 5.0,
    }


class TestLoadSkeleton:
    def test_two_joint_chain(self, tmp_path):
        path = _write_json(
            tmp_path / "skel.json",
            {"joints": [_joint("root", None, (0, 0, 0)), _joint("child", 0, (0, 1, 0))],
             "foot_joints": [1]},
        )
        skel = load_skeleton(path)
        assert skel.joint_count == 2
        assert skel.parents[1] == 0
        assert skel.foot_joints == {1}
        np.testing.assert_allclose(skel.rest_offsets[1], [0, 1, 0])

    def test_child_before_parent_rejected(self, tmp_path):
        path = _write_json(
            tmp_path / "skel.json",
            {"joints": [_joint("root", None, (0, 0, 0)),
                        _joint("a", 2, (0, 1, 0)),
                        _joint("b", 0, (0, 1, 0))]},
        )
        with pytest.raises(DataError, match="topologically"):
            load_skeleton(path)

    def test_limit_order_names_joint(self, tmp_path):
        bad = _joint("elbow", 0, (0, 1, 0))
        bad["q_min"] = [0.5, 0.0, 0.0]
        bad["q_max"] = [0.1, 1.0, 1.0]
        path = _write_json(
            tmp_path / "skel.json",
            {"joints": [_joint("root", None, (0, 0, 0)), bad]},
        )
        with pytest.raises(DataError, match="elbow"):
            load_skeleton(path)

    @pytest.mark.parametrize("field", ["q_min", "q_max", "v_min", "v_max"])
    def test_nan_limits_name_the_file(self, tmp_path, field):
        # NaN passes the order checks (every comparison with it is False)
        bad = _joint("elbow", 0, (0, 1, 0))
        bad[field] = [float("nan")] * 3 if field.startswith("q") else float("nan")
        path = _write_json(tmp_path / "skel.json", {"joints": [_joint("root", None, (0, 0, 0)), bad]})
        with pytest.raises(DataError, match=rf"skel\.json: {field} contains non-finite values"):
            load_skeleton(path)

    def test_two_roots_rejected(self, tmp_path):
        path = _write_json(
            tmp_path / "skel.json",
            {"joints": [_joint("root", None, (0, 0, 0)), _joint("other", None, (0, 1, 0))]},
        )
        with pytest.raises(DataError, match="root"):
            load_skeleton(path)

    def test_foot_index_out_of_range(self, tmp_path):
        path = _write_json(
            tmp_path / "skel.json",
            {"joints": [_joint("root", None, (0, 0, 0))], "foot_joints": [7]},
        )
        with pytest.raises(DataError, match="foot"):
            load_skeleton(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "skel.json"
        path.write_text('{"joints": [,]}')
        with pytest.raises(DataError, match="line"):
            load_skeleton(path)


def _frame(j, root_rot=(1.0, 0.0, 0.0, 0.0)):
    return {
        "root_pos": [0.0, 0.0, 0.0],
        "root_rot": list(root_rot),
        "joint_rots": [[0.0, 0.0, 0.0] for _ in range(j - 1)],
        "obj_pos": [0.0, 0.0, 0.0],
        "obj_rot": [1.0, 0.0, 0.0, 0.0],
    }


class TestLoadMotion:
    def test_one_frame_identity(self, tmp_path):
        skel = make_chain(3)
        path = _write_json(tmp_path / "m.json", {"fps": 25.0, "frames": [_frame(3)]})
        seq = load_motion(path, skel)
        assert seq.frame_count == 1
        assert seq.dt == pytest.approx(1.0 / 25.0)
        assert seq.joint_rots.shape == (1, 2, 3)

    def test_joint_count_mismatch(self, tmp_path):
        skel = make_chain(4)
        path = _write_json(tmp_path / "m.json", {"fps": 30.0, "frames": [_frame(6)]})
        with pytest.raises(DataError, match="5 joint_rots.*4 joints"):
            load_motion(path, skel)

    def test_quaternion_renormalization_failure(self, tmp_path):
        skel = make_chain(2)
        path = _write_json(
            tmp_path / "m.json",
            {"fps": 30.0, "frames": [_frame(2, root_rot=(2.0, 0.0, 0.0, 0.0))]},
        )
        with pytest.raises(DataError, match="norm deviation 1"):
            load_motion(path, skel)

    def test_quaternion_within_tolerance_renormalized(self, tmp_path):
        skel = make_chain(2)
        q = (1.0005, 0.0, 0.0, 0.0)
        path = _write_json(tmp_path / "m.json", {"fps": 30.0, "frames": [_frame(2, root_rot=q)]})
        seq = load_motion(path, skel)
        assert np.linalg.norm(seq.root_rot[0]) == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_fps(self, tmp_path):
        skel = make_chain(2)
        path = _write_json(tmp_path / "m.json", {"fps": 0.0, "frames": [_frame(2)]})
        with pytest.raises(DataError, match="fps"):
            load_motion(path, skel)

    @pytest.mark.parametrize("fps", [float("inf"), float("nan")])
    def test_non_finite_fps(self, fps):
        # an infinite fps would make dt 0 and collapse the velocity bounds
        frame = np.zeros((1, 3))
        with pytest.raises(DataError, match="fps must be positive and finite"):
            MotionSequence(fps=fps, root_pos=frame, root_rot=np.array([[1.0, 0.0, 0.0, 0.0]]),
                           joint_rots=np.zeros((1, 1, 3)), obj_pos=frame, obj_rot=np.array([[1.0, 0.0, 0.0, 0.0]]))

    def test_bad_contact_labels(self, tmp_path):
        skel = make_chain(2)
        frame = _frame(2)
        frame["contacts"] = [0, 3]
        path = _write_json(tmp_path / "m.json", {"fps": 30.0, "frames": [frame]})
        with pytest.raises(DataError, match="contact"):
            load_motion(path, skel)

    def test_out_of_range_contact_label_names_file_and_frame(self, tmp_path):
        skel = make_chain(2)
        frames = [dict(_frame(2), contacts=[0, 1]), dict(_frame(2), contacts=[-1, 2])]
        path = _write_json(tmp_path / "m.json", {"fps": 30.0, "frames": frames})
        with pytest.raises(DataError, match=r"m\.json: frame 1 contact labels must lie in \{-1, 0, 1\}"):
            load_motion(path, skel)

    @pytest.mark.parametrize("labels", [[0, 0.9], [True, 0], [1, False], [0, 1.0], [1, "1"], [0, None], [0, [1]]])
    def test_contact_labels_must_be_integers(self, tmp_path, labels):
        skel = make_chain(2)
        frames = [dict(_frame(2), contacts=[0, 1]), dict(_frame(2), contacts=labels)]
        path = _write_json(tmp_path / "m.json", {"fps": 30.0, "frames": frames})
        with pytest.raises(DataError, match=r"m\.json: frame 1 contact labels must be integers"):
            load_motion(path, skel)

    def test_integer_contact_labels_load(self, tmp_path):
        skel = make_chain(2)
        frames = [dict(_frame(2), contacts=[0, 1]), dict(_frame(2), contacts=[-1, 0])]
        seq = load_motion(_write_json(tmp_path / "m.json", {"fps": 30.0, "frames": frames}), skel)
        assert seq.contacts.dtype == int
        assert seq.contacts.tolist() == [[0, 1], [-1, 0]]

    @pytest.mark.parametrize("value, shape", [
        ([[0.5, -0.0, 2], [10**20, 2**63 + 1, -3]], (2, 3)),
        ([[[1e-300, float("nan")], [1, 2]]], (1, 2, 2)),
        ([[]], (1, 0)),
        (30, ()),
    ], ids=["ints-and-floats", "three-levels", "empty-rows", "scalar"])
    def test_numbers_read_as_np_array_does(self, value, shape):
        # the flattened reading returns np.array(value, dtype=float)'s bytes
        assert _number_array(value, shape).tobytes() == np.array(value, dtype=float).tobytes()
        assert _number_array(value, shape).shape == shape

    @pytest.mark.parametrize("value, shape", [
        ([[1.0, True]], (1, 2)), ([[1.0, "2"]], (1, 2)), ([[1.0], [2.0, 3.0]], (2, 1)), ([[1.0, [2.0]]], (1, 2)),
        ([1.0, 2.0], (1, 2)), (["ab"], (1, 2)), ([{"a": 1, "b": 2}], (1, 2)), ([""], (1, 0)), ([10**400], (1,)),
    ], ids=["bool", "text", "ragged", "too-deep", "too-shallow", "string-row", "object-row", "empty-string-row",
            "beyond-float"])
    def test_numbers_refuse_what_is_not_nested_numbers(self, value, shape):
        assert _number_array(value, shape) is None


class TestLoadObj:
    def test_unit_tetrahedron(self, tmp_path):
        path = tmp_path / "tet.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
            "f 1 2 3\nf 1 2 4\nf 1 3 4\nf 2 3 4\n"
        )
        mesh = load_obj(path)
        assert mesh.vertices.shape == (4, 3)
        assert mesh.faces.shape == (4, 3)
        assert mesh.faces.min() == 0

    def test_face_out_of_range(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 2 9\n")
        with pytest.raises(DataError, match="vertex 9"):
            load_obj(path)

    def test_cube_with_comments(self, tmp_path):
        from conftest import make_box

        path = tmp_path / "cube.obj"
        save_obj(make_box(), path)
        text = "# comment\nvn 0 0 1\n" + path.read_text()
        path.write_text(text)
        mesh = load_obj(path)
        assert mesh.vertices.shape == (8, 3)
        assert mesh.faces.shape == (12, 3)


class TestRoundTrip:
    def test_skeleton_byte_identical(self, tmp_path):
        skel = make_chain(5, foot_joints=(4,))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_skeleton(skel, a)
        save_skeleton(load_skeleton(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_motion_byte_identical_and_lossless(self, tmp_path, rng):
        skel = make_chain(4)
        frames = 5
        rots = rng.normal(size=(frames, 4))
        rots /= np.linalg.norm(rots, axis=1, keepdims=True)
        seq = MotionSequence(
            fps=30.0,
            root_pos=rng.normal(size=(frames, 3)),
            root_rot=rots,
            joint_rots=rng.normal(size=(frames, 3, 3)),
            obj_pos=rng.normal(size=(frames, 3)),
            obj_rot=np.tile((1.0, 0.0, 0.0, 0.0), (frames, 1)),
            contacts=rng.integers(-1, 2, size=(frames, 4)),
        )
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_motion(seq, a)
        loaded = load_motion(a, skel)
        save_motion(loaded, b)
        assert a.read_bytes() == b.read_bytes()
        np.testing.assert_allclose(loaded.root_pos, seq.root_pos, atol=1e-9)
        np.testing.assert_allclose(loaded.root_rot, seq.root_rot, atol=1e-9)
        np.testing.assert_allclose(loaded.joint_rots, seq.joint_rots, atol=1e-9)
        np.testing.assert_array_equal(loaded.contacts, seq.contacts)

    def test_obj_byte_identical(self, tmp_path, box):
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        save_obj(box, a)
        save_obj(load_obj(a), b)
        assert a.read_bytes() == b.read_bytes()


class TestTypes:
    def test_shape_params_must_be_positive(self):
        with pytest.raises(DataError):
            ShapeParams(bone_scales=np.array([1.0, 0.0]))

    def test_object_mesh_face_range(self):
        with pytest.raises(DataError):
            ObjectMesh(vertices=np.zeros((3, 3)), faces=np.array([[0, 1, 3]]))

    @pytest.mark.parametrize("vertices, message", [
        (np.zeros((0, 3)), "object has no vertices"),
        (np.array([[0.0, 0.0, 0.0], [1.0, np.nan, 0.0], [0.0, 1.0, 0.0]]), "non-finite"),
        (np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -np.inf, 0.0]]), "non-finite"),
    ], ids=["empty", "nan", "inf"])
    def test_object_mesh_refuses_vertices_retargeting_cannot_use(self, vertices, message):
        # none reaches retargeting: no vertices escaped it as a numpy ValueError,
        # and a non-finite one left every frame without an interact mesh
        with pytest.raises(DataError, match=message):
            ObjectMesh(vertices=vertices, faces=np.zeros((0, 3), dtype=int))

    def test_motion_sequence_needs_a_frame(self):
        # a zero-frame sequence escaped retarget_sequence as a numpy reshape error
        with pytest.raises(DataError, match="at least one frame"):
            MotionSequence(fps=30.0, root_pos=np.zeros((0, 3)), root_rot=np.zeros((0, 4)),
                           joint_rots=np.zeros((0, 1, 3)), obj_pos=np.zeros((0, 3)), obj_rot=np.zeros((0, 4)))

    def test_loaded_types_immutable(self, tmp_path):
        skel = make_chain(3)
        with pytest.raises(ValueError):
            skel.rest_offsets[0] = 1.0
